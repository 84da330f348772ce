#pragma once
// Stationary iterative methods — the pre-Krylov baselines (Jacobi
// iteration, Gauss-Seidel, SOR) that CG's "faster convergence rate"
// (Section 2) is measured against.
//
// Jacobi's update x <- x + D^{-1}(b - A x) is embarrassingly data-parallel
// (one matvec plus local work: a perfect fit for HPF), while Gauss-Seidel
// and SOR sweep sequentially through the unknowns — the same dependency
// structure as the paper's Scenario 2, which is why parallel codes of the
// era preferred Jacobi or red-black orderings.

#include <functional>
#include <span>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/options.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/sparse/csr.hpp"

namespace hpfcg::solvers {

/// Serial Jacobi iteration.  Converges for strictly diagonally dominant A.
SolveResult jacobi_iteration(const sparse::Csr<double>& a,
                             std::span<const double> b, std::span<double> x,
                             const SolveOptions& opts = {});

/// Matrix-free serial Jacobi iteration: `diag` is A's (nonzero) diagonal.
/// Runs jacobi_iteration_dist on a one-rank machine with 1/diag.
SolveResult jacobi_iteration(const MatVec& a, std::span<const double> diag,
                             std::span<const double> b, std::span<double> x,
                             const SolveOptions& opts = {});

/// Serial SOR (omega = 1 gives Gauss-Seidel).  Sequential sweeps.
SolveResult sor_iteration(const sparse::Csr<double>& a,
                          std::span<const double> b, std::span<double> x,
                          double omega, const SolveOptions& opts = {});

/// Distributed Jacobi iteration over any matvec kernel: needs the inverse
/// diagonal aligned with the vectors.  Fully parallel — one matvec plus
/// local updates and one norm merge per sweep.
template <class T>
SolveResult jacobi_iteration_dist(const DistOp<T>& a,
                                  const hpf::DistributedVector<T>& inv_diag,
                                  const hpf::DistributedVector<T>& b,
                                  hpf::DistributedVector<T>& x,
                                  const SolveOptions& opts = {}) {
  SolveResult res;
  const double bnorm = std::sqrt(static_cast<double>(hpf::dot_product(b, b)));
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  auto r = hpf::DistributedVector<T>::aligned_like(b);
  auto q = hpf::DistributedVector<T>::aligned_like(b);

  for (std::size_t k = 0; k < opts.max_iterations; ++k) {
    a(x, q);
    hpf::assign(b, r);
    hpf::axpy<T>(T{-1}, q, r);  // r = b - A x
    const double rnorm =
        std::sqrt(static_cast<double>(hpf::dot_product(r, r)));
    res.iterations = k;
    if (detail::record_exit(res, opts, rnorm, bnorm, stop)) return res;
    // x += D^{-1} r  — purely local given the aligned inverse diagonal.
    auto xs = x.local();
    auto rs = r.local();
    auto ds = inv_diag.local();
    for (std::size_t i = 0; i < xs.size(); ++i) xs[i] += ds[i] * rs[i];
    x.proc().add_flops(2 * xs.size());
  }
  return res;
}

}  // namespace hpfcg::solvers
