#include "hpfcg/solvers/gmres.hpp"

#include <cmath>
#include <vector>

#include "hpfcg/util/error.hpp"
#include "hpfcg/util/span_math.hpp"

namespace hpfcg::solvers {

namespace {

double norm2(std::span<const double> v) {
  return std::sqrt(util::dot_local(v, v));
}

}  // namespace

SolveResult gmres(const MatVec& a, std::span<const double> b,
                  std::span<double> x, const GmresOptions& opts) {
  HPFCG_REQUIRE(b.size() == x.size(), "gmres: dimension mismatch");
  HPFCG_REQUIRE(opts.restart >= 1, "gmres: restart length must be >= 1");
  const std::size_t n = b.size();
  const std::size_t m = opts.restart;
  SolveResult res;
  const double bnorm = norm2(b);
  const double stop =
      opts.base.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  // Krylov basis (m+1 vectors of length n) — the "greater storage" of
  // Section 2.1 — plus the (m+1)×m Hessenberg in packed columns.
  std::vector<std::vector<double>> v(m + 1, std::vector<double>(n));
  std::vector<std::vector<double>> h(m, std::vector<double>(m + 1, 0.0));
  std::vector<double> cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0), w(n);

  std::size_t total_steps = 0;
  while (total_steps < opts.base.max_iterations) {
    // Restart: r0 = b - A x, v1 = r0/|r0|.
    a(x, w);
    for (std::size_t i = 0; i < n; ++i) v[0][i] = b[i] - w[i];
    double beta = norm2(v[0]);
    res.relative_residual = bnorm > 0.0 ? beta / bnorm : beta;
    if (opts.base.track_residuals && total_steps == 0) {
      res.residual_history.push_back(beta);
    }
    if (detail::residual_exit(res, beta, stop)) return res;
    const double inv_beta = 1.0 / beta;
    for (auto& vi : v[0]) vi *= inv_beta;
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    std::size_t j = 0;  // columns built this cycle
    for (; j < m && total_steps < opts.base.max_iterations; ++j) {
      // Arnoldi step with modified Gram-Schmidt: w = A v_j, orthogonalize
      // against v_0..v_j (j+1 inner products + j+1 AXPYs).
      a(v[j], w);
      for (std::size_t i = 0; i <= j; ++i) {
        const double hij = util::dot_local<double>(w, v[i]);
        h[j][i] = hij;
        util::axpy<double>(-hij, v[i], w);
      }
      const double hnext = norm2(w);
      h[j][j + 1] = hnext;
      if (hnext > 0.0) {
        const double inv = 1.0 / hnext;
        for (std::size_t i = 0; i < n; ++i) v[j + 1][i] = w[i] * inv;
      }

      // Apply previous Givens rotations to the new column, then create the
      // rotation that annihilates h[j][j+1].
      for (std::size_t i = 0; i < j; ++i) {
        const double t = cs[i] * h[j][i] + sn[i] * h[j][i + 1];
        h[j][i + 1] = -sn[i] * h[j][i] + cs[i] * h[j][i + 1];
        h[j][i] = t;
      }
      const double denom =
          std::sqrt(h[j][j] * h[j][j] + h[j][j + 1] * h[j][j + 1]);
      if (denom == 0.0) {
        res.breakdown = true;
        break;
      }
      cs[j] = h[j][j] / denom;
      sn[j] = h[j][j + 1] / denom;
      h[j][j] = denom;
      h[j][j + 1] = 0.0;
      g[j + 1] = -sn[j] * g[j];
      g[j] = cs[j] * g[j];

      ++total_steps;
      res.iterations = total_steps;
      const double rnorm = std::abs(g[j + 1]);
      res.relative_residual = bnorm > 0.0 ? rnorm / bnorm : rnorm;
      if (opts.base.track_residuals) res.residual_history.push_back(rnorm);
      if (!std::isfinite(rnorm)) {  // x takes only the earlier columns
        res.breakdown = true;
        break;
      }
      if (rnorm <= stop || hnext == 0.0) {
        ++j;  // include this column in the update
        break;
      }
    }

    // Back-substitute y from the triangularized system, update x.
    if (j > 0) {
      std::vector<double> y(j, 0.0);
      for (std::size_t ii = j; ii-- > 0;) {
        double acc = g[ii];
        for (std::size_t k = ii + 1; k < j; ++k) acc -= h[k][ii] * y[k];
        y[ii] = acc / h[ii][ii];
      }
      for (std::size_t k = 0; k < j; ++k) {
        util::axpy<double>(y[k], v[k], x);
      }
    }
    if (res.breakdown) return res;

    if (res.relative_residual * (bnorm > 0.0 ? bnorm : 1.0) <= stop) {
      // Confirm with the true residual (restarted GMRES's recurrence
      // residual can drift).
      a(x, w);
      double true_r = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = b[i] - w[i];
        true_r += d * d;
      }
      true_r = std::sqrt(true_r);
      res.relative_residual = bnorm > 0.0 ? true_r / bnorm : true_r;
      if (true_r <= stop * 1.01) {
        res.converged = true;
        return res;
      }
    }
  }
  return res;
}

SolveResult gmres(const sparse::Csr<double>& a, std::span<const double> b,
                  std::span<double> x, const GmresOptions& opts) {
  return gmres(
      [&a](std::span<const double> p, std::span<double> q) { a.matvec(p, q); },
      b, x, opts);
}

}  // namespace hpfcg::solvers
