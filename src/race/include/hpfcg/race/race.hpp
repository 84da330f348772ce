#pragma once
// hpfcg::race — vector-clock message-race detection with schedule
// perturbation replay.
//
// TSan sees races on *memory*; this layer sees races on *match order*.  The
// msg runtime has exactly the ingredients for logical message races that no
// memory checker can observe: wildcard (any-source) receives, a seq-stamped
// mailbox fast path, and mid-solve rebalancing.  Whether two in-flight
// sends could both satisfy one receive is a happens-before question, so
// every envelope piggybacks a compact vector clock (a side channel riding
// the Envelope struct, never the payload — Stats counters stay
// bit-identical), and a per-machine Detector flags:
//
//   * wildcard-receive races — two concurrently-in-flight sends that could
//     both match one any-source receive, reported with both candidate
//     source ranks and the receive site;
//   * unordered conflicting accesses to replicated/PRIVATE regions across
//     ranks (fed into the existing hpfcg::check violation ledger);
//   * fence-order hazards — a point-to-point message pending across a
//     fence-class collective (barrier / allreduce family) whose send the
//     collective's clock does not dominate.
//
// Paired with detection is a schedule-perturbation replayer (replay.hpp):
// with a nonzero replay seed, any-source matching picks uniformly among the
// eligible per-source heads instead of the oldest arrival — an adversarial
// network — while per-(src,tag) FIFO is preserved by construction.
// Re-running a solve N times under different seeds and asserting either
// bit-identical results or that every divergence was flagged is the
// ISP/MUST-style completeness argument for our solvers.
//
// Cost discipline mirrors hpfcg::check / hpfcg::trace:
//   * side channel only — detection never sends messages and never touches
//     Stats; with detection on (replay off), match order, Stats, and
//     modeled costs are bit-identical to a detector-free run (proved by
//     bench_race_overhead);
//   * hot path — one null-pointer branch per send/receive when disabled.
//
// Enablement is two-level:
//   compile time — CMake option HPFCG_RACE (ON by default) defines
//     HPFCG_RACE_ENABLED; OFF removes every hook from the binary;
//   run time — environment variable HPFCG_RACE (a util::Knob, read once) or
//     set_enabled(); replay via HPFCG_RACE_SEED or set_replay_seed().
//     A msg::Runtime samples both at construction, like the check harness.

#include <cstdint>

#include "hpfcg/util/knob.hpp"

namespace hpfcg::race {

/// True when the race-detection hooks are compiled into the binary.
#ifdef HPFCG_RACE_ENABLED
inline constexpr bool kCompiled = true;
#else
inline constexpr bool kCompiled = false;
#endif

#ifdef HPFCG_RACE_ENABLED
/// Runtime switch: env HPFCG_RACE (parsed once) or set_enabled().
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Schedule-perturbation seed: 0 (default) keeps the mailbox's oldest-first
/// any-source delivery; nonzero seeds the adversarial permutation.  Env
/// HPFCG_RACE_SEED or set_replay_seed().
[[nodiscard]] std::uint64_t replay_seed();
void set_replay_seed(std::uint64_t seed);
#else
[[nodiscard]] inline constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
[[nodiscard]] inline constexpr std::uint64_t replay_seed() { return 0; }
inline void set_replay_seed(std::uint64_t) {}
#endif

/// RAII enable/disable for tests: restores the previous state on scope exit.
using ScopedEnable = util::ScopedOverride<enabled, set_enabled, true>;

/// RAII replay-seed override for tests and the replay harness.
using ScopedReplaySeed = util::ScopedOverride<replay_seed, set_replay_seed>;

}  // namespace hpfcg::race
