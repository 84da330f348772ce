#pragma once
// Distributed restarted GMRES over the HPF layer.
//
// The communication contrast with CG that Section 2.1 hints at: Arnoldi
// step j performs j+1 DOT_PRODUCT merges (plus the basis-vector norms), so
// the per-iteration merge traffic grows with the restart length, while the
// Krylov basis costs m+1 distributed vectors of storage.  The scalar
// Hessenberg/Givens state is replicated — every rank computes identical
// values because the reduction trees are deterministic.

#include <cmath>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/gmres.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::solvers {

/// Distributed GMRES(m).  `x` holds the initial guess / solution.
template <class T>
SolveResult gmres_dist(const DistOp<T>& a, const hpf::DistributedVector<T>& b,
                       hpf::DistributedVector<T>& x,
                       const GmresOptions& opts = {}) {
  HPFCG_REQUIRE(opts.restart >= 1, "gmres_dist: restart must be >= 1");
  const std::size_t m = opts.restart;
  detail::Solve<T> solve(b, opts.base);

  std::vector<hpf::DistributedVector<T>> v;
  v.reserve(m + 1);
  for (std::size_t i = 0; i <= m; ++i) {
    v.push_back(hpf::DistributedVector<T>::aligned_like(b));
  }
  auto w = hpf::DistributedVector<T>::aligned_like(b);
  std::vector<std::vector<double>> h(m, std::vector<double>(m + 1, 0.0));
  std::vector<double> cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0);

  std::size_t total_steps = 0;
  while (total_steps < opts.base.max_iterations) {
    solve.matvec(a, x, w);
    hpf::assign(b, v[0]);
    hpf::axpy<T>(T{-1}, w, v[0]);  // v0 = b - A x
    const double beta =
        std::sqrt(static_cast<double>(hpf::dot_product(v[0], v[0])));
    // The first cycle's residual opens the history; a restart's is tested,
    // not recorded (the history holds the least-squares residuals).
    if (total_steps == 0 ? solve.record(0, beta) : solve.test(beta)) {
      return solve.finish();
    }
    hpf::scale<T>(static_cast<T>(1.0 / beta), v[0]);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    std::size_t j = 0;
    for (; j < m && total_steps < opts.base.max_iterations; ++j) {
      const auto iter_span = solve.iteration(total_steps);
      solve.matvec(a, v[j], w);
      for (std::size_t i = 0; i <= j; ++i) {
        const double hij = static_cast<double>(hpf::dot_product(w, v[i]));
        h[j][i] = hij;
        hpf::axpy<T>(static_cast<T>(-hij), v[i], w);
      }
      const double hnext =
          std::sqrt(static_cast<double>(hpf::dot_product(w, w)));
      h[j][j + 1] = hnext;
      if (hnext > 0.0) {
        hpf::assign(w, v[j + 1]);
        hpf::scale<T>(static_cast<T>(1.0 / hnext), v[j + 1]);
      }

      for (std::size_t i = 0; i < j; ++i) {
        const double t = cs[i] * h[j][i] + sn[i] * h[j][i + 1];
        h[j][i + 1] = -sn[i] * h[j][i] + cs[i] * h[j][i + 1];
        h[j][i] = t;
      }
      const double denom =
          std::sqrt(h[j][j] * h[j][j] + h[j][j + 1] * h[j][j + 1]);
      if (solve.breakdown(denom == 0.0)) break;
      cs[j] = h[j][j] / denom;
      sn[j] = h[j][j + 1] / denom;
      h[j][j] = denom;
      h[j][j + 1] = 0.0;
      g[j + 1] = -sn[j] * g[j];
      g[j] = cs[j] * g[j];

      ++total_steps;
      const bool done = solve.record(total_steps, std::abs(g[j + 1]));
      if (solve.res.breakdown) break;  // non-finite: x takes earlier columns
      if (done || hnext == 0.0) {
        ++j;
        break;
      }
    }

    std::vector<double> y(j, 0.0);
    for (std::size_t ii = j; ii-- > 0;) {
      double acc = g[ii];
      for (std::size_t k = ii + 1; k < j; ++k) acc -= h[k][ii] * y[k];
      y[ii] = acc / h[ii][ii];
    }
    for (std::size_t k = 0; k < j; ++k) {
      hpf::axpy<T>(static_cast<T>(y[k]), v[k], x);
    }
    if (solve.res.breakdown) return solve.finish();

    // A cycle that converged by its least-squares residual ends on the
    // true residual: converged stands only if that agrees within 1%.
    if (solve.res.converged) {
      solve.matvec(a, x, w);
      auto r = hpf::DistributedVector<T>::aligned_like(b);
      hpf::assign(b, r);
      hpf::axpy<T>(T{-1}, w, r);
      const double true_r =
          std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
      solve.res.relative_residual =
          detail::relative_residual(true_r, solve.bnorm());
      solve.res.converged = true_r <= solve.stop() * 1.01;
      if (solve.res.converged) return solve.finish();
    }
  }
  return solve.finish();
}

}  // namespace hpfcg::solvers
