#pragma once
// hpfcg::check — the machine-checked correctness layer.
//
// The paper's argument is about which loops are *legal* to parallelize and
// which communication patterns the compiler may emit; the hand-lowered SPMD
// runtime can get exactly that wrong silently (mismatched collectives,
// many-to-one races, out-of-shard writes).  This module is an MPI-checker
// style (MUST-like) conformance layer threaded through msg/hpf/ext:
//
//   * collective conformance — every rank entering a collective posts an
//     op fingerprint (kind, root, element size, count, per-rank sequence
//     number) to a shared ledger; divergence is diagnosed by name instead
//     of deadlocking (collective_ledger.hpp);
//   * deadlock / leak detection — a watchdog dumps per-rank wait-for state
//     (who is blocked in which recv/collective, on which tag) when the
//     machine stops making progress, and a teardown audit reports
//     unreceived messages left in mailboxes (harness.hpp);
//   * ownership conformance — DistributedVector / DistCsr / PrivateArray
//     trap accesses to non-owned global indices and merge-before-publish
//     violations (the paper's Scenario-2 race, Section 5.1).
//
// Cost discipline: the layer is zero-cost when compiled out
// (-DHPFCG_CHECK=OFF ⇒ every hook folds to a constant-false branch) and
// side-channel-only when on: conformance never sends messages through the
// simulated network, so Stats counters (messages/bytes/flops, modeled
// times) are bit-identical whether checking is enabled or not.
//
// Enablement is two-level:
//   compile time — CMake option HPFCG_CHECK (ON by default) defines
//     HPFCG_CHECK_ENABLED; OFF removes every hook from the binary;
//   run time — environment variable HPFCG_CHECK (a util::Knob, read once),
//     or programmatic set_enabled() (tests, benches).  A msg::Runtime
//     samples the flag at construction.

#include <cstdint>

#include "hpfcg/util/knob.hpp"

namespace hpfcg::check {

/// True when the verification hooks are compiled into the binary.
#ifdef HPFCG_CHECK_ENABLED
inline constexpr bool kCompiled = true;
#else
inline constexpr bool kCompiled = false;
#endif

#ifdef HPFCG_CHECK_ENABLED
/// Runtime switch: env HPFCG_CHECK (parsed once) or set_enabled().
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Watchdog no-progress timeout in milliseconds (env HPFCG_CHECK_TIMEOUT_MS,
/// default 20000).  Settable programmatically for deadlock tests.
[[nodiscard]] std::int64_t watchdog_timeout_ms();
void set_watchdog_timeout_ms(std::int64_t ms);
#else
[[nodiscard]] inline constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
[[nodiscard]] inline constexpr std::int64_t watchdog_timeout_ms() { return 0; }
inline void set_watchdog_timeout_ms(std::int64_t) {}
#endif

/// RAII enable/disable for tests: restores the previous state on scope exit.
using ScopedEnable = util::ScopedOverride<enabled, set_enabled, true>;

}  // namespace hpfcg::check
