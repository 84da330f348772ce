#pragma once
// GMRES(m) — the "more complex algorithms such as GMRES [that] make use of
// longer recurrences (which require greater storage)" of Section 2.1.
//
// Restarted GMRES with Arnoldi orthogonalization (modified Gram-Schmidt)
// and Givens-rotation least squares.  Unlike CG's three-vector recurrence,
// GMRES(m) stores an m+1-vector Krylov basis — the storage/communication
// trade-off the paper contrasts against CG: every Arnoldi step performs
// j+1 inner products, so the merge traffic per iteration grows linearly
// with the restart length where CG's stays constant.

#include <cstddef>
#include <span>

#include "hpfcg/solvers/options.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/sparse/csr.hpp"

namespace hpfcg::solvers {

/// Restart-length control on top of the shared options.
struct GmresOptions {
  SolveOptions base{};
  std::size_t restart = 30;  ///< m: Krylov basis size between restarts
};

/// Matrix-free restarted GMRES.  Works for any nonsingular A (not just
/// SPD).  `x` carries the initial guess in and the solution out.
/// SolveResult::iterations counts total inner (Arnoldi) steps.  Runs
/// gmres_dist (dist_gmres.hpp) on a one-rank machine.
SolveResult gmres(const MatVec& a, std::span<const double> b,
                  std::span<double> x, const GmresOptions& opts = {});

/// GMRES on an assembled CSR matrix.
SolveResult gmres(const sparse::Csr<double>& a, std::span<const double> b,
                  std::span<double> x, const GmresOptions& opts = {});

}  // namespace hpfcg::solvers
