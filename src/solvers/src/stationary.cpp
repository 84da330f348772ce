#include "hpfcg/solvers/stationary.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "hpfcg/util/error.hpp"
#include "hpfcg/util/span_math.hpp"

namespace hpfcg::solvers {

namespace {

/// ||b - A x||_2, leaving A x in `ax`.
double residual_norm(const MatVec& a, std::span<const double> x,
                     std::span<const double> b, std::span<double> ax) {
  a(x, ax);
  double acc = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = b[i] - ax[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

MatVec wrap(const sparse::Csr<double>& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    a.matvec(x, y);
  };
}

/// A's diagonal, the divisor of every update: a zero entry is named by row.
std::vector<double> nonzero_diagonal(const sparse::Csr<double>& a,
                                     const char* who) {
  auto diag = a.diagonal();
  for (std::size_t i = 0; i < diag.size(); ++i) {
    HPFCG_REQUIRE(diag[i] != 0.0, std::string(who) +
                                      ": zero diagonal entry in row " +
                                      std::to_string(i));
  }
  return diag;
}

}  // namespace

SolveResult jacobi_iteration(const sparse::Csr<double>& a,
                             std::span<const double> b, std::span<double> x,
                             const SolveOptions& opts) {
  return jacobi_iteration(wrap(a), nonzero_diagonal(a, "jacobi_iteration"), b,
                          x, opts);
}

SolveResult sor_iteration(const sparse::Csr<double>& a,
                          std::span<const double> b, std::span<double> x,
                          double omega, const SolveOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "sor_iteration: dimension mismatch");
  HPFCG_REQUIRE(omega > 0.0 && omega < 2.0, "sor: omega must be in (0,2)");
  const std::size_t n = b.size();
  SolveResult res;
  const auto diag = nonzero_diagonal(a, "sor_iteration");
  const MatVec op = wrap(a);
  const double bnorm = std::sqrt(util::norm2_sq_local<double>(b));
  const double stop = detail::stop_threshold(opts.rel_tolerance, bnorm);

  std::vector<double> scratch(n);
  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    const double rnorm = residual_norm(op, x, b, scratch);
    res.iterations = k;
    if (detail::record_exit(res, opts, rnorm, bnorm, stop)) return res;
    // In-place forward sweep — each unknown uses already-updated
    // predecessors: the Scenario-2-style sequential dependency.
    for (std::size_t i = 0; i < n; ++i) {
      double acc = b[i];
      const auto cols = a.row_cols(i);
      const auto vals = a.row_values(i);
      for (std::size_t kk = 0; kk < cols.size(); ++kk) {
        if (cols[kk] != i) acc -= vals[kk] * x[cols[kk]];
      }
      x[i] = (1.0 - omega) * x[i] + omega * acc / diag[i];
    }
  }
  return res;
}

}  // namespace hpfcg::solvers
