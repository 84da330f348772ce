#pragma once
// Shared declarations of the wall-clock benchmark (see perfbench/README.md).
//
// The benchmark drives the public library API from outside: it times each
// layer around the calls into it, reads the spans hpfcg::trace already
// records, and never adds instrumentation inside src/.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "hpfcg/trace/span.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile by linear interpolation between order statistics (q in [0,1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- host and knob report (host.cpp) -----------------------------------

struct HostReport {
  std::string build_type;
  std::string cxx_flags;
  std::string compiler;
  std::array<std::pair<const char*, bool>, 4> compiled{};  ///< side channels
  std::vector<std::pair<std::string, std::string>> env;    ///< HPFCG_* vars
  unsigned cpus = 0;           ///< CPUs this process may run on
  std::vector<std::string> caches;
  std::size_t llc_bytes = 0;   ///< last-level cache (0 when unknown)
};

[[nodiscard]] HostReport probe_host();
void print_host(std::ostream& os, const HostReport& h);

/// Why this process must not be timed, or "" when it may.  A run-time
/// enabled check, race, repro or trace mode, or HPFCG_HALO=0, turns the
/// program into a different one.  A traced run turns tracing on itself,
/// after its untraced reference solves.
[[nodiscard]] std::string refuse_reason();

// ---- same-binary ceilings (ceilings.cpp) --------------------------------

struct Triad {
  double gbps = 0.0;
  std::size_t array_bytes = 0;  ///< size of each of the three arrays
};

/// STREAM triad a = b + s*c over `threads` threads, median of passes.
[[nodiscard]] Triad triad(int threads, std::size_t array_bytes);

/// One-way Process::send/recv handoff at NP=2 (half a round trip), µs.
[[nodiscard]] double pingpong_us(std::size_t payload_bytes);

/// One allreduce_batch of `width` doubles at `np` ranks, µs (median).
[[nodiscard]] double allreduce_us(int np, std::size_t width);

// ---- exclusive time per layer from trace spans (layers.cpp) -------------

/// The rows of the layer table.  Every span recorded inside a solver
/// iteration lands in exactly one row by its kind.
enum Layer : int {
  kBookkeeping,  ///< iteration span exclusive of its children
  kSpmv,         ///< solver matvec span + benchmark DistOp closure
  kPrecond,      ///< solver precond span + benchmark DistPrec closure
  kMgL0,
  kMgL1,
  kMgL2,
  kMgL3,         ///< level 3 and any deeper level
  kHalo,         ///< halo executor, its sends/receives excluded
  kSend,
  kRecv,
  kReduce,       ///< tree collectives, their sends/receives excluded
  kVec,          ///< axpy/aypx and the local part of dot/dot_batch
  kOther,
  kLayerCount
};

[[nodiscard]] const char* layer_name(int layer);

/// Benchmark-side interval, stamped with the rank's trace clock so it nests
/// with the library's spans.
struct ClosureSpan {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  Layer layer = kSpmv;
};

/// Per-rank accumulation over the traced solves.
struct LayerAccum {
  std::array<double, kLayerCount> excl_ns{};
  double halo_incl_ns = 0.0;
  double reduce_incl_ns = 0.0;
  double vec_bytes = 0.0;       ///< computed bytes of the vector kernels
  std::uint64_t matvecs = 0;    ///< solver matvecs inside iterations
  std::uint64_t iterations = 0; ///< iteration spans seen
  std::uint64_t dropped = 0;    ///< spans lost to ring wrap

  /// Fold one solve's spans (library ring + benchmark closures) in.
  void add_solve(const std::vector<hpfcg::trace::Span>& spans,
                 const std::vector<ClosureSpan>& closures,
                 std::uint64_t dropped_spans);

  [[nodiscard]] double per_iter_us(double ns) const {
    return iterations == 0 ? 0.0 : ns / static_cast<double>(iterations) * 1e-3;
  }
};

}  // namespace perfbench
