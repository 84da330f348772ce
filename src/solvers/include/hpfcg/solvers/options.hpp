#pragma once
// Shared iterative-solver configuration and reporting types.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpfcg::solvers {

/// Stopping control for every iterative solver in the suite.
struct SolveOptions {
  std::size_t max_iterations = 1000;
  /// Converged when ||r||_2 <= rel_tolerance * ||b||_2 (absolute when b=0).
  double rel_tolerance = 1e-10;
  /// Record ||r||_2 after every iteration (residual_history).
  bool track_residuals = false;
  /// Mid-solve load rebalancing (distributed cg/pcg/cg_fused only): every
  /// this many iterations the solver invokes its RebalanceHook, which may
  /// migrate the matrix onto new cut points and return the new row
  /// distribution; the solver then re-aligns its live vectors with
  /// hpf::redistribute.  0 (default) disables the hook entirely — the
  /// solve is bit-identical to one that never heard of rebalancing.
  std::size_t rebalance_every = 0;
};

/// Outcome of an iterative solve.
struct SolveResult {
  std::size_t iterations = 0;
  bool converged = false;
  /// True when the recurrence broke down (zero inner product) before
  /// reaching the tolerance — possible for CGS/BiCG on hard problems, and
  /// the reason the paper calls CGS numerically undesirable.
  bool breakdown = false;
  /// ||r||_2 / ||b||_2 at exit.
  double relative_residual = 0.0;
  /// Per-iteration ||r||_2 (filled only when track_residuals).
  std::vector<double> residual_history;

  /// Bit-exact fingerprint of the solve's observable trajectory: FNV-1a
  /// over the raw bits of every recorded residual plus the iteration count,
  /// convergence, and exit residual.  Two solves are replay-equivalent iff
  /// their signatures match — the comparison currency of the hpfcg::race
  /// schedule-perturbation replayer (solve with track_residuals so the
  /// whole trajectory is pinned, not just the endpoint).
  [[nodiscard]] std::uint64_t residual_signature() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ULL;
      }
    };
    for (const double r : residual_history) mix(std::bit_cast<std::uint64_t>(r));
    mix(static_cast<std::uint64_t>(iterations));
    mix(static_cast<std::uint64_t>(converged) |
        (static_cast<std::uint64_t>(breakdown) << 1));
    mix(std::bit_cast<std::uint64_t>(relative_residual));
    return h;
  }
};

namespace detail {
/// The stop threshold: rel_tolerance * ||b||, absolute when b = 0.
inline double stop_threshold(double rel_tolerance, double bnorm) {
  return rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);
}

/// ||r|| / ||b||, or ||r|| when b = 0 (SolveResult::relative_residual).
inline double relative_residual(double rnorm, double bnorm) {
  return bnorm > 0.0 ? rnorm / bnorm : rnorm;
}

/// The exit test every solver, serial and distributed, runs on each
/// residual norm it records: converged once `rnorm` reaches `stop`,
/// breakdown once it is no longer finite (a NaN never satisfies
/// `rnorm <= stop`, so without this the solve would run on to
/// max_iterations).  O(1).  True when the solve must stop.
inline bool residual_exit(SolveResult& res, double rnorm, double stop) {
  if (rnorm <= stop) {
    res.converged = true;
    return true;
  }
  if (!std::isfinite(rnorm)) {
    res.breakdown = true;
    return true;
  }
  return false;
}

/// Record one residual evaluation as the exit residual (and into the
/// history when tracked), then run residual_exit on it.  True when the
/// solve must stop.
inline bool record_exit(SolveResult& res, const SolveOptions& opts,
                        double rnorm, double bnorm, double stop) {
  res.relative_residual = relative_residual(rnorm, bnorm);
  if (opts.track_residuals) res.residual_history.push_back(rnorm);
  return residual_exit(res, rnorm, stop);
}
}  // namespace detail

}  // namespace hpfcg::solvers
