#pragma once
// hpfcg::trace — per-rank span tracing with model-vs-measured validation.
//
// The paper's evaluation is purely analytical: Section 4 bills every CG
// phase with closed-form costs (t_startup·log N_P for the reduction tree,
// O(n/N_P) for SAXPY) and our CostModel reproduces the formulas.  This
// module closes the loop by *measuring* them: every rank records what it
// actually did — sends, receives, each collective with kind/width/tree
// depth, intrinsic and solver phases — into a fixed-capacity ring buffer
// (span.hpp), which exports to Chrome-trace/Perfetto JSON
// (chrome_export.hpp) and feeds a least-squares fit of t_startup/t_comm
// from the traced collectives (model_fit.hpp).
//
// Cost discipline mirrors hpfcg::check:
//   * side channel only — recording never sends messages and never touches
//     Stats, so every Stats counter is bit-identical whether tracing is
//     off, on, or compiled out (proved by bench_trace_overhead);
//   * hot path — one null-pointer branch when runtime-disabled; when
//     enabled, a span is two steady_clock reads and one store into a
//     preallocated ring (no locks, no allocation after init).
//
// Enablement is two-level:
//   compile time — CMake option HPFCG_TRACE (ON by default) defines
//     HPFCG_TRACE_ENABLED; OFF removes every hook from the binary;
//   run time — environment variable HPFCG_TRACE (a util::Knob, read once),
//     or programmatic set_enabled() (tests, benches).  A msg::Runtime
//     samples the flag at construction, like the check harness.

#include <cstddef>

#include "hpfcg/util/knob.hpp"

namespace hpfcg::trace {

/// True when the tracing hooks are compiled into the binary.
#ifdef HPFCG_TRACE_ENABLED
inline constexpr bool kCompiled = true;
#else
inline constexpr bool kCompiled = false;
#endif

#ifdef HPFCG_TRACE_ENABLED
/// Runtime switch: env HPFCG_TRACE (parsed once) or set_enabled().
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Per-rank span ring capacity (env HPFCG_TRACE_CAPACITY, default 65536
/// spans ≈ 2.5 MiB/rank).  Sampled when a Session is constructed; when the
/// ring wraps, the oldest spans are overwritten and counted as dropped.
[[nodiscard]] std::size_t ring_capacity();
void set_ring_capacity(std::size_t spans);
#else
[[nodiscard]] inline constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
[[nodiscard]] inline constexpr std::size_t ring_capacity() { return 0; }
inline void set_ring_capacity(std::size_t) {}
#endif

/// RAII enable/disable for tests: restores the previous state on scope exit.
using ScopedEnable = util::ScopedOverride<enabled, set_enabled, true>;

}  // namespace hpfcg::trace
