#pragma once
// Per-process instrumentation counters.
//
// Every process accumulates what it actually did — messages, bytes, flops,
// collective calls — plus a modeled clock split into communication and
// computation.  Tests assert on the exact counts (they are deterministic);
// benchmarks print the modeled times next to the paper's closed-form
// predictions.

#include <cstddef>
#include <cstdint>
#include <utility>

namespace hpfcg::msg {

/// Counters for one simulated processor.  Not thread-safe by design: each
/// process mutates only its own Stats.
struct Stats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t flops = 0;
  std::uint64_t barriers = 0;
  std::uint64_t collectives = 0;  ///< broadcast/reduce/allreduce/gather/...
  /// Reduction-class collectives entered (reduce, allreduce, allreduce_vec,
  /// reduce_batch, allreduce_batch).  A scalar allreduce counts once; a
  /// batch of k scalars also counts once — this is the "allreduces per
  /// iteration" currency of the communication-avoiding solver benchmarks.
  std::uint64_t reductions = 0;
  /// Scalar values merged by those reductions (k per batch), so the
  /// batching factor reduction_values / reductions is visible.
  std::uint64_t reduction_values = 0;
  /// Reductions routed through the reproducible mode (hpfcg::repro): exact
  /// superaccumulator merges instead of float adds, and the values they
  /// carried.  Zero whenever the mode is off — the opt-in costs nothing
  /// until enabled, and the A/B benches assert exactly that.
  std::uint64_t repro_reductions = 0;
  std::uint64_t repro_values = 0;

  /// Halo-executor traffic (sparse::HaloPlan): point-to-point messages and
  /// payload bytes this rank *sent* through a cached ghost-exchange plan,
  /// and ghost entries materialized at plan build — under HPFCG_HALO=0 the
  /// plan's ghosts are every foreign index, so the O(n) gather volume is
  /// counted here too.  `gather_bytes` counts the foreign bytes a full
  /// `to_global()` gather delivered to this rank.
  std::uint64_t halo_msgs = 0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t ghost_entries = 0;
  std::uint64_t gather_bytes = 0;
  /// Nothing increments this: every sparse matrix constructor requires a
  /// contiguous row map, so no sweep can fall back from the halo executor.
  /// Kept because perfbench reports and gates it.
  std::uint64_t halo_fallbacks = 0;

  /// Multigrid preconditioner work (solvers::MgPreconditioner): V-cycle
  /// applications and Gauss–Seidel half-sweeps summed over every level —
  /// the "smoother sweeps per preconditioner apply" currency of the
  /// bench_hpcg tables (a V(1,1) cycle over L levels runs 4(L-1) + 2·coarse
  /// half-sweeps).
  std::uint64_t mg_vcycles = 0;
  std::uint64_t mg_level_sweeps = 0;

  /// Envelope storage path per message sent: inline (≤64 B payload),
  /// drawn from the destination mailbox's buffer pool, or the tracked
  /// heap fallback when the bounded pool is exhausted (or pooling is
  /// toggled off).  These diagnose the allocation machinery, so unlike
  /// every other counter they legitimately move with the mailbox
  /// fast-path toggles; message semantics and modeled costs do not.
  /// The pooled/heap split additionally depends on thread scheduling
  /// (whether a recycle beat the next draw back to the pool) — only
  /// `envelopes_pooled + envelopes_heap` is deterministic per workload.
  std::uint64_t envelopes_inline = 0;
  std::uint64_t envelopes_pooled = 0;
  std::uint64_t envelopes_heap = 0;

  double modeled_comm_seconds = 0.0;
  double modeled_compute_seconds = 0.0;
  /// Idle time spent waiting on serialized predecessors (Process::sequential
  /// token chains).  This is how the model exposes loops that "can not be
  /// performed in parallel" (the paper's Scenario 2).
  double modeled_wait_seconds = 0.0;

  [[nodiscard]] double modeled_seconds() const {
    return modeled_comm_seconds + modeled_compute_seconds +
           modeled_wait_seconds;
  }

  /// Calls f(&Stats::field) for every counter, in declaration order.  The
  /// one field list: operator+= and operator-= iterate it, so a counter
  /// added here reaches every aggregate and every per-phase delta.
  template <class F>
  static void for_each_field(F&& f) {
    f(&Stats::messages_sent);
    f(&Stats::messages_received);
    f(&Stats::bytes_sent);
    f(&Stats::bytes_received);
    f(&Stats::flops);
    f(&Stats::barriers);
    f(&Stats::collectives);
    f(&Stats::reductions);
    f(&Stats::reduction_values);
    f(&Stats::repro_reductions);
    f(&Stats::repro_values);
    f(&Stats::halo_msgs);
    f(&Stats::halo_bytes);
    f(&Stats::ghost_entries);
    f(&Stats::gather_bytes);
    f(&Stats::halo_fallbacks);
    f(&Stats::mg_vcycles);
    f(&Stats::mg_level_sweeps);
    f(&Stats::envelopes_inline);
    f(&Stats::envelopes_pooled);
    f(&Stats::envelopes_heap);
    f(&Stats::modeled_comm_seconds);
    f(&Stats::modeled_compute_seconds);
    f(&Stats::modeled_wait_seconds);
  }

  /// Element-wise sum, used to aggregate across ranks.
  Stats& operator+=(const Stats& o) {
    for_each_field([&](auto field) { this->*field += o.*field; });
    return *this;
  }

  /// Element-wise difference: the counters accrued since snapshot `o`.
  Stats& operator-=(const Stats& o) {
    for_each_field([&](auto field) { this->*field -= o.*field; });
    return *this;
  }

  void reset() { *this = Stats{}; }
};

/// True when `a` and `b` agree on every counter, modeled doubles included:
/// the contract of the side-channel modes (check, trace, race, and repro
/// while off), which must leave Stats equal under this predicate.  The
/// pooled/heap envelope split depends on thread scheduling (whether a
/// recycle beat the next draw), so only envelopes_pooled + envelopes_heap
/// is compared.
[[nodiscard]] inline bool counters_identical(Stats a, Stats b) {
  a.envelopes_pooled += std::exchange(a.envelopes_heap, 0);
  b.envelopes_pooled += std::exchange(b.envelopes_heap, 0);
  bool same = true;
  Stats::for_each_field([&](auto field) { same = same && a.*field == b.*field; });
  return same;
}

// Adding a counter changes sizeof(Stats), so this fails until the new
// counter is listed in for_each_field and the count here is raised.
static_assert(sizeof(Stats) == 24 * sizeof(std::uint64_t),
              "list every Stats counter in Stats::for_each_field");

}  // namespace hpfcg::msg
