#pragma once
// hpfcg::repro — opt-in bit-reproducible floating-point reductions.
//
// Dot products and sum-allreduces normally round differently depending on
// NP, tree shape, and block-cut placement: floating-point addition is not
// associative, so the *same* solve returns different bits at NP=1 vs NP=8,
// and a mid-solve rebalance (sparse::redistribute) silently changes the
// answer of an in-flight CG.  With this mode on, every sum-class reduction
// — Process::allreduce / allreduce_batch / allreduce_vec and the local
// partial-sum loops of hpf::dot_product(s) / sum / norm2 — routes through
// an *exact* fixed-point superaccumulator (superacc.hpp).  Exact summation
// is associative and commutative, so the result is a pure function of the
// multiset of addends: any NP in {1..8}, any reduction-tree shape, and any
// rebalance schedule produce bit-identical results, rounded once at the
// end (the Iakymchuk et al. reproducible-PCG construction).
//
// Cost discipline mirrors hpfcg::check / hpfcg::trace / hpfcg::race:
//   * opt-in — default OFF; with the mode off every reduction takes the
//     ordinary float path and Stats/results stay bit-identical to a build
//     without the hooks (proved by bench_repro);
//   * observable — reductions routed through the mode bump the
//     Stats::repro_reductions / repro_values counters and record
//     kReproMerge trace spans, so the overhead is measurable, not guessed.
//
// Enablement is two-level:
//   compile time — CMake option HPFCG_REPRO (ON by default) defines
//     HPFCG_REPRO_ENABLED; OFF removes the re-routing branches;
//   run time — environment variable HPFCG_REPRO (a util::Knob, read once)
//     or set_enabled().  A msg::Runtime samples the flag at construction,
//     like the check harness, so all ranks of a machine agree on the
//     collective shapes for the machine's whole lifetime.

#include "hpfcg/util/knob.hpp"

namespace hpfcg::repro {

/// True when the reproducible-reduction branches are compiled in.
#ifdef HPFCG_REPRO_ENABLED
inline constexpr bool kCompiled = true;
#else
inline constexpr bool kCompiled = false;
#endif

#ifdef HPFCG_REPRO_ENABLED
/// Runtime switch: env HPFCG_REPRO (parsed once) or set_enabled().
[[nodiscard]] bool enabled();
void set_enabled(bool on);
#else
[[nodiscard]] inline constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#endif

/// RAII enable/disable for tests: restores the previous state on scope exit.
using ScopedEnable = util::ScopedOverride<enabled, set_enabled, true>;

}  // namespace hpfcg::repro
