#pragma once
// Inspector/executor halo exchange for row-distributed sparse matrices.
//
// Scenario 1's matvec as lowered by HPF-1 materializes the whole p vector
// on every rank (an all-to-all broadcast, O(n) bytes per rank per sweep)
// even though a rank's rows reference only the columns its nnz actually
// touch.  This module is the compiler transformation the paper's
// SPARSE_MATRIX descriptor enables: because the (row_ptr, col, a) trio is
// declared immutable, the column footprint of each rank is a static
// property — so an *inspector* pass can run once, compute exactly which
// foreign x entries this rank needs (its ghost set), exchange the packed
// index lists via one personalized all-to-all, and remap the local column
// indices into a compact [owned | ghost] numbering.  The per-sweep
// *executor* then posts O(boundary) point-to-point messages from the
// cached plan instead of rebuilding an O(n) replicated vector.  Both
// halves are a sparse::ExchangePlan whose wanted list is the ghost set.
//
// Plan lifecycle:
//   build       — collective; scans the given column indices against the
//                 (contiguous) row distribution.  Cached indefinitely:
//                 the descriptor's immutability contract means the footprint
//                 never changes for a given ownership map.
//   exchange    — forward executor (matvec): owners ship boundary entries,
//                 ghosts land in the tail of the [owned | ghost] buffer.
//   accumulate  — reverse executor (matvec_transpose): ghost *partials*
//                 travel back to their owners and are added into the owned
//                 range — an owner-targeted scatter/accumulate replacing
//                 the n-length allreduce merge.
//   rebuild     — on redistribute the ownership map changes; migration
//                 constructs a fresh matrix, whose plan is built
//                 (collectively, lazily) at its first sweep.
//
// Determinism: receives are posted per source rank in ascending-rank order
// (never wildcard), and reverse-direction partials are accumulated in that
// same fixed order, so solver residual histories are replay-invariant and
// the forward path is bit-identical for any ghost set that covers the
// touched columns (each row dots its entries in the same k order).
//
// Checking: the build registers the plan's replicated topology fingerprint
// (per-rank ghost/boundary counts) with the conformance ledger, and every
// executor replay re-posts it under kHaloExchange — a rank replaying a
// stale plan is named by the ledger instead of deadlocking on an orphaned
// recv.  The fingerprint inputs are replicated by an unconditional (tiny)
// allgatherv so enabling the checker never changes what the network does.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/sparse/exchange_plan.hpp"
#include "hpfcg/trace/span.hpp"
#include "hpfcg/util/error.hpp"
#include "hpfcg/util/knob.hpp"

namespace hpfcg::sparse {

namespace halo {

/// Which ghost set a sparse matrix's plan holds, sampled when the plan is
/// built: env HPFCG_HALO (a util::Knob, default ON) or set_enabled().  On,
/// the foreign columns a rank's rows touch; off (any value that is not an
/// on-spelling), every foreign index — the Scenario-1 gather volume on the
/// same executor, kept for A/B byte comparisons.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// RAII enable/disable for tests and benches: restores the previous state.
using ScopedEnable = util::ScopedOverride<enabled, set_enabled, true>;

}  // namespace halo

/// The cached communication schedule of one rank: who I receive boundary
/// entries from (owners of my ghosts), who I send to (ranks whose rows
/// reference my entries), and which owned indices each of them needs.
/// Plain value state — matrices are copied by the rebalance hook, and a
/// copied plan stays valid as long as the ownership map does.
class HaloPlan {
 public:
  /// Collective inspector: the ghost set is the sorted, deduplicated union
  /// of the foreign entries of `cols` (global numbering) under the
  /// contiguous row distribution.  Every rank must call it together (it
  /// runs an alltoallv + allgatherv).
  void build(msg::Process& proc, std::span<const std::size_t> cols,
             const hpf::Distribution& row_dist) {
    HPFCG_REQUIRE(row_dist.contiguous(),
                  "HaloPlan: row distribution must be contiguous");
    const int np = proc.nprocs();
    const auto [lo, hi] = row_dist.local_range(proc.rank());
    row_lo_ = lo;
    n_owned_ = hi - lo;

    ghost_gids_.clear();
    for (const std::size_t c : cols) {
      if (c < lo || c >= hi) ghost_gids_.push_back(c);
    }
    std::sort(ghost_gids_.begin(), ghost_gids_.end());
    ghost_gids_.erase(std::unique(ghost_gids_.begin(), ghost_gids_.end()),
                      ghost_gids_.end());
    xp_.build(proc, ghost_gids_, row_dist);

    // Replicate the per-rank (ghost, boundary) counts and fold them into
    // the topology fingerprint the executor re-posts on every replay.
    // Unconditional so checking never changes the communication pattern.
    const std::size_t mine[2] = {ghost_gids_.size(), xp_.send_entries()};
    std::vector<std::size_t> all_counts;
    proc.allgatherv<std::size_t>(
        std::span<const std::size_t>(mine, 2), all_counts,
        std::vector<std::size_t>(static_cast<std::size_t>(np), 2));
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(row_dist.size()));
    for (int r = 0; r < np; ++r) {
      mix(row_dist.local_range(r).first);
    }
    for (const std::size_t c : all_counts) mix(c);
    topo_fp_ = static_cast<std::size_t>(h);
    if (proc.checking_active()) proc.conform_replicated(topo_fp_);

    proc.stats().ghost_entries += ghost_gids_.size();
    built_ = true;
  }

  [[nodiscard]] bool built() const { return built_; }
  [[nodiscard]] std::size_t n_ghosts() const { return ghost_gids_.size(); }
  [[nodiscard]] std::size_t send_neighbors() const {
    return xp_.send_peers();
  }
  [[nodiscard]] const std::vector<std::size_t>& ghost_gids() const {
    return ghost_gids_;
  }
  [[nodiscard]] std::size_t topology_fingerprint() const { return topo_fp_; }

  /// Compact [owned | ghost] index of global column g: owned entries keep
  /// their offset within the block, ghosts follow in ascending-gid order.
  [[nodiscard]] std::size_t local_index(std::size_t g) const {
    if (g >= row_lo_ && g < row_lo_ + n_owned_) return g - row_lo_;
    const auto it =
        std::lower_bound(ghost_gids_.begin(), ghost_gids_.end(), g);
    HPFCG_REQUIRE(it != ghost_gids_.end() && *it == g,
                  "HaloPlan: column index missing from the ghost set");
    return n_owned_ +
           static_cast<std::size_t>(it - ghost_gids_.begin());
  }

  /// Forward executor: owners ship the boundary entries of `owned` that
  /// peers ghost; this rank's ghosts land in `ghosts` (ascending-gid
  /// order, matching local_index).  `pack` is caller-owned scratch so the
  /// steady state allocates nothing.
  template <class T>
  void exchange(msg::Process& proc, std::span<const T> owned,
                std::span<T> ghosts, std::vector<T>& pack) const {
    auto span = replay(proc, sizeof(T), owned.size(), ghosts.size(), 0);
    tally(proc, span, xp_.gather<T>(proc, kForwardTag, owned, ghosts, pack));
  }

  /// Reverse executor: ship this rank's ghost *partials* back to their
  /// owners and add incoming partials into `owned` at the boundary
  /// positions, in ascending peer-rank order (deterministic summation).
  template <class T>
  void accumulate(msg::Process& proc, std::span<const T> ghost_partials,
                  std::span<T> owned, std::vector<T>& pack) const {
    auto span =
        replay(proc, sizeof(T), owned.size(), ghost_partials.size(), 1);
    tally(proc, span,
          xp_.scatter_add<T>(proc, kReverseTag, ghost_partials, owned, pack));
  }

  /// Pipelined Gauss–Seidel half-sweep exchange, phase 1 — call BEFORE the
  /// local row sweep.  For an ascending (forward) sweep each rank
  ///   1. ships its OLD owned boundary values to lower-ranked peers (their
  ///      rows precede this rank's in global order, so this rank's entries
  ///      are not-yet-updated columns there),
  ///   2. refreshes ghosts owned by higher ranks with their OLD values, and
  ///   3. blocks for UPDATED ghost values from lower-ranked owners — the
  ///      sequential cross-rank dependency (the paper's Scenario 2) that
  ///      makes the sweep bit-identical to a serial Gauss–Seidel pass in
  ///      global row order, for any NP and any contiguous partition.
  /// A descending (backward) sweep mirrors every direction.  Phase 2
  /// (sweep_post) ships this rank's updated boundary values downstream.
  /// Contiguous ownership means peer rank order IS global row order, so a
  /// single recv loop in ascending peer rank serves both roles: upstream
  /// owners' messages are their post-sweep values, downstream owners' are
  /// their pre-sweep values, and per-(src, tag) FIFO keeps successive
  /// half-sweeps paired.
  template <class T>
  void sweep_pre(msg::Process& proc, std::span<const T> owned,
                 std::span<T> ghosts, std::vector<T>& pack,
                 bool ascending) const {
    auto span = replay(proc, sizeof(T), owned.size(), ghosts.size(), 2);
    const int me = proc.rank();
    const auto t = xp_.send<T>(proc, kSweepTag, owned, pack, [&](int r) {
      return ascending ? r < me : r > me;
    });
    xp_.recv<T>(proc, kSweepTag, ghosts);
    tally(proc, span, t);
  }

  /// Phase 2 of the pipelined half sweep: ship this rank's now-updated
  /// boundary values to the peers the sweep has not reached yet (higher
  /// ranks for an ascending sweep, lower for a descending one) — they are
  /// blocked in their sweep_pre recv loop waiting for exactly these.
  template <class T>
  void sweep_post(msg::Process& proc, std::span<const T> owned,
                  std::vector<T>& pack, bool ascending) const {
    HPFCG_REQUIRE(built_, "HaloPlan::sweep_post before build");
    HPFCG_REQUIRE(owned.size() == n_owned_,
                  "HaloPlan::sweep_post: buffer size disagrees with the plan");
    const int me = proc.rank();
    const auto t = xp_.send<T>(proc, kSweepTag, owned, pack, [&](int r) {
      return ascending ? r > me : r < me;
    });
    auto& s = proc.stats();
    s.halo_msgs += t.msgs;
    s.halo_bytes += t.bytes;
  }

  /// Modeled time of one forward replay under the machine's cost model.
  [[nodiscard]] double modeled_exchange_seconds(
      const msg::CostModel& model, std::size_t elem_size) const {
    return model.halo_exchange_time(xp_.send_peers(),
                                    xp_.send_entries() * elem_size);
  }

 private:
  // Executor tags live in the user tag space (FIFO per (src, tag) keeps
  // repeated replays paired); distinct directions use distinct tags so a
  // matvec and a matvec_transpose in flight can never cross.
  static constexpr int kForwardTag = 0x2401;
  static constexpr int kReverseTag = 0x2402;
  static constexpr int kSweepTag = 0x2403;  ///< pipelined GS half-sweeps

  /// Opening of every replay that receives: validate the buffers, post the
  /// topology fingerprint to the ledger, and open the kHalo span (aux: 0
  /// forward, 1 reverse, 2 pipelined sweep).
  [[nodiscard]] trace::SpanScope replay(msg::Process& proc,
                                        std::size_t elem_size,
                                        std::size_t owned, std::size_t ghosts,
                                        std::uint8_t aux) const {
    HPFCG_REQUIRE(built_, "HaloPlan: executor replay before build");
    HPFCG_REQUIRE(owned == n_owned_ && ghosts == n_ghosts(),
                  "HaloPlan: buffer sizes disagree with the plan");
    proc.conform_halo(elem_size, topo_fp_);
    return trace::SpanScope(
        proc.tracer_rank(), trace::SpanKind::kHalo,
        static_cast<std::uint32_t>(xp_.send_peers() + xp_.recv_peers()), 0,
        0, aux);
  }

  static void tally(msg::Process& proc, trace::SpanScope& span,
                    ExchangePlan::Traffic t) {
    span.set_bytes(t.bytes);
    auto& s = proc.stats();
    s.halo_msgs += t.msgs;
    s.halo_bytes += t.bytes;
  }

  bool built_ = false;
  std::size_t n_owned_ = 0;
  std::size_t row_lo_ = 0;
  std::size_t topo_fp_ = 0;
  std::vector<std::size_t> ghost_gids_;  ///< sorted foreign columns
  ExchangePlan xp_;                      ///< the inspector/executor
};

}  // namespace hpfcg::sparse
