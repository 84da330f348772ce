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
  SolveResult res;
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop =
      opts.base.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

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
    a(x, w);
    hpf::assign(b, v[0]);
    hpf::axpy<T>(T{-1}, w, v[0]);  // v0 = b - A x
    const double beta =
        std::sqrt(static_cast<double>(hpf::dot_product(v[0], v[0])));
    res.relative_residual = bnorm > 0.0 ? beta / bnorm : beta;
    if (opts.base.track_residuals && total_steps == 0) {
      res.residual_history.push_back(beta);
    }
    if (detail::residual_exit(res, beta, stop)) return res;
    hpf::scale<T>(static_cast<T>(1.0 / beta), v[0]);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    std::size_t j = 0;
    for (; j < m && total_steps < opts.base.max_iterations; ++j) {
      a(v[j], w);
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
        ++j;
        break;
      }
    }

    if (j > 0) {
      std::vector<double> y(j, 0.0);
      for (std::size_t ii = j; ii-- > 0;) {
        double acc = g[ii];
        for (std::size_t k = ii + 1; k < j; ++k) acc -= h[k][ii] * y[k];
        y[ii] = acc / h[ii][ii];
      }
      for (std::size_t k = 0; k < j; ++k) {
        hpf::axpy<T>(static_cast<T>(y[k]), v[k], x);
      }
    }
    if (res.breakdown) return res;

    if (res.relative_residual * (bnorm > 0.0 ? bnorm : 1.0) <= stop) {
      a(x, w);
      auto r = hpf::DistributedVector<T>::aligned_like(b);
      hpf::assign(b, r);
      hpf::axpy<T>(T{-1}, w, r);
      const double true_r =
          std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
      res.relative_residual = bnorm > 0.0 ? true_r / bnorm : true_r;
      if (true_r <= stop * 1.01) {
        res.converged = true;
        return res;
      }
    }
  }
  return res;
}

}  // namespace hpfcg::solvers
