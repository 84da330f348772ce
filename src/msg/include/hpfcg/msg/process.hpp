#pragma once
// Per-processor communication context: point-to-point messaging and the
// collective operations the HPF layer is lowered to.
//
// Semantics follow the message-passing SPMD model the paper contrasts HPF
// against: sends are buffered (eager) and never block; receives block until
// a matching message arrives; collectives must be called by all ranks in
// the same order (standard SPMD discipline).
//
// Modeled-time accounting (see cost_model.hpp): a sender pays the start-up
// latency `t_startup`; the receiver pays the routing and transfer time
// `hops * t_hop + bytes * t_comm`.  Summed over a balanced exchange this
// reproduces the paper's per-step cost `t_startup + t_comm * m`, and the
// per-rank maximum approximates the machine's critical path.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/check/harness.hpp"
#include "hpfcg/msg/runtime.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/repro/superacc.hpp"
#include "hpfcg/trace/span.hpp"
#include "hpfcg/util/error.hpp"

namespace hpfcg::msg {

namespace detail {
/// True when `Op` is the standard addition functor for `T` — the only
/// reduction class the reproducible mode re-routes (max/min/loc merges pick
/// an operand rather than rounding, so they are already order-invariant).
template <class T, class Op>
inline constexpr bool kIsPlus =
    std::is_same_v<Op, std::plus<T>> || std::is_same_v<Op, std::plus<>>;
}  // namespace detail

/// Handle to one simulated processor inside Runtime::run().
class Process {
 public:
  Process(Runtime& rt, int rank)
      : rt_(rt),
        rank_(rank),
        trace_(rt.tracer() != nullptr ? &rt.tracer()->rank(rank) : nullptr) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nprocs() const { return rt_.nprocs(); }
  [[nodiscard]] const CostModel& cost() const { return rt_.cost(); }
  [[nodiscard]] Runtime& runtime() { return rt_; }
  [[nodiscard]] Stats& stats() { return rt_.stats_mutable(rank_); }

  /// This rank's span ring, or nullptr when tracing is off.  Upper layers
  /// (hpf intrinsics, solvers) hang their own SpanScopes off it.
  [[nodiscard]] trace::RankTrace* tracer_rank() const { return trace_; }

  /// Binomial-tree depth of the machine, ceil(log2 NP); stamped on every
  /// collective span so the model fit knows how many start-ups a tree pass
  /// paid without re-deriving it from NP.
  [[nodiscard]] std::uint16_t tree_depth() const {
    return static_cast<std::uint16_t>(
        std::bit_width(static_cast<unsigned>(nprocs() - 1)));
  }

  /// Solver metrics channel: publish one per-iteration sample (residual plus
  /// this rank's cumulative counters) to the trace ring.  No-op when tracing
  /// is off; never mutates Stats either way.
  void trace_iteration(std::uint64_t iteration, double residual) {
    if (trace_ == nullptr) return;
    const Stats& s = rt_.stats_mutable(rank_);
    trace::IterationMetrics m;
    m.t_ns = trace_->now_ns();
    m.iteration = iteration;
    m.residual = residual;
    m.reductions = s.reductions;
    m.reduction_values = s.reduction_values;
    m.bytes_moved = s.bytes_sent + s.bytes_received;
    m.messages = s.messages_sent + s.messages_received;
    m.flops = s.flops;
    trace_->note_iteration(m);
  }

  /// Record `n` local floating-point operations in the cost model.
  void add_flops(std::uint64_t n) {
    auto& s = stats();
    s.flops += n;
    s.modeled_compute_seconds += cost().compute_time(n);
  }

  // ---- point-to-point --------------------------------------------------

  /// Buffered send of a trivially-copyable element range.
  template <class T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, data.data(), data.size_bytes());
  }

  template <class T>
  void send_value(int dst, int tag, const T& v) {
    send(dst, tag, std::span<const T>(&v, 1));
  }

  /// Blocking receive into a caller-sized buffer; the message length must
  /// match exactly (HPF lowerings always know their shapes).
  template <class T>
  void recv_into(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    Envelope env = recv_bytes(src, tag);
    HPFCG_REQUIRE(env.size() == out.size_bytes(),
                  "recv: message length mismatch");
    if (!env.empty()) {  // empty span data() may be null (UB to copy)
      std::memcpy(out.data(), env.data(), env.size());
    }
    rt_.mailbox(rank_).recycle(std::move(env));
  }

  /// Blocking receive of a whole message as a vector.
  template <class T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Envelope env = recv_bytes(src, tag);
    HPFCG_REQUIRE(env.size() % sizeof(T) == 0,
                  "recv: message is not a whole number of elements");
    std::vector<T> out(env.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), env.data(), env.size());
    }
    rt_.mailbox(rank_).recycle(std::move(env));
    return out;
  }

  /// Receive from any source; `src_out` reports the actual sender.
  template <class T>
  std::vector<T> recv_any(int tag, int& src_out) {
    Envelope env = recv_bytes(kAnySource, tag, &src_out);
    HPFCG_REQUIRE(env.size() % sizeof(T) == 0,
                  "recv_any: message is not a whole number of elements");
    std::vector<T> out(env.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), env.data(), env.size());
    }
    rt_.mailbox(rank_).recycle(std::move(env));
    return out;
  }

  template <class T>
  T recv_value(int src, int tag) {
    T v{};
    recv_into(src, tag, std::span<T>(&v, 1));
    return v;
  }

  // ---- collectives -----------------------------------------------------
  // All ranks must call each collective in the same program order.

  /// Synchronize all processors.
  void barrier() {
    conform(check::CollectiveKind::kBarrier, check::kNoRoot, 0, 0);
    race_fence("barrier");
    trace::SpanScope span(trace_, trace::SpanKind::kBarrier, 0, 0,
                          tree_depth());
    auto& s = stats();
    ++s.barriers;
    s.modeled_comm_seconds += cost().barrier_time();
    check::Harness* h = rt_.checker();
    if (h != nullptr) h->begin_wait(rank_, check::WaitKind::kBarrier);
    race::Detector* d = rt_.racer();
    if (d != nullptr) d->barrier_post(rank_);
    rt_.barrier_wait();
    if (d != nullptr) d->barrier_adopt(rank_);
    if (h != nullptr) h->end_wait(rank_);
  }

  /// Binomial-tree broadcast of a fixed-size buffer: `buf` is input on
  /// `root`, output elsewhere.  The size is known on every rank, so one
  /// message travels per tree edge.
  template <class T>
  void broadcast_into(int root, std::span<T> buf) {
    conform(check::CollectiveKind::kBroadcast, root, sizeof(T), buf.size());
    trace::SpanScope span(trace_, trace::SpanKind::kBroadcast,
                          static_cast<std::uint32_t>(root), buf.size_bytes(),
                          tree_depth());
    const int seq = next_collective();
    tree_bcast(
        root, [&](int parent) { recv_into<T>(parent, coll_tag(seq, 0), buf); },
        [&](int child) {
          send<T>(child, coll_tag(seq, 0), std::span<const T>(buf));
        });
  }

  // ---- all-reductions --------------------------------------------------
  // Every merge takes one body (allreduce_body): up the rank-order binomial
  // tree to rank 0, then back down it.  A batch of k scalars pays the
  // per-hop start-up — the paper's dominant `t_startup · log NP` term —
  // once instead of k times, and since a scalar all-reduce is a width-1
  // batch, the batch is bit-identical to k scalar all-reduces.  With the
  // reproducible mode on, floating-point sums route through the exact
  // superaccumulator merge instead (see allreduce_acc), so the result is
  // the correctly rounded exact sum — identical for every NP and tree.

  /// All-reduce of one value under `op`: a width-1 allreduce_batch.
  template <class T, class Op = std::plus<T>>
  T allreduce(T value, Op op = {}) {
    allreduce_batch<T, Op>(std::span<T>(&value, 1), op);
    return value;
  }

  /// Element-wise all-reduce of equal-length vectors on every rank.
  /// This is the merge phase of the paper's PRIVATE ... WITH MERGE(+).
  template <class T, class Op = std::plus<T>>
  void allreduce_vec(std::vector<T>& buf, Op op = {}) {
    if (allreduce_exact<T, Op>(std::span<T>(buf))) return;
    allreduce_body(check::CollectiveKind::kAllreduceVec,
                   trace::SpanKind::kAllreduceVec, std::span<T>(buf),
                   buf.size(),
                   [&](T& mine, const T& theirs) { mine = op(mine, theirs); });
  }

  /// Fused all-reduce of `vals.size()` independent scalars, element-wise
  /// under `op`, one message per tree edge.  All ranks must pass the same
  /// batch width (enforced by the conformance ledger); width 0 moves
  /// nothing.
  template <class T, class Op = std::plus<T>>
  void allreduce_batch(std::span<T> vals, Op op = {}) {
    // Same batched tree, exact payloads: the batch stays bit-identical to
    // vals.size() scalar repro allreduces because each value's exact sum is
    // independent of its neighbors in the batch.
    if (allreduce_exact<T, Op>(vals)) return;
    allreduce_body(check::CollectiveKind::kAllreduceBatch,
                   trace::SpanKind::kAllreduceBatch, vals, vals.size(),
                   [&](T& mine, const T& theirs) { mine = op(mine, theirs); });
  }

  /// True when this machine routes sum-class reductions through the exact
  /// superaccumulator (sampled once at Runtime construction).  Folds to
  /// false when the repro layer is compiled out.
  [[nodiscard]] bool repro_active() const {
    if constexpr (!repro::kCompiled) return false;
    return rt_.repro_active();
  }

  /// All-reduce of exact superaccumulators — the reproducible mode's merge
  /// primitive.  Takes the same body as allreduce_batch, but the payload is
  /// the fixed-point accumulator and the merge is element-wise integer limb
  /// addition, which is associative: every rank ends holding the
  /// bit-identical exact sum (rank 0's merged limbs, broadcast verbatim)
  /// and rounds it identically.  Books one reduction of accs.size() values
  /// — the same currency as the float path — plus the limb-merge flops,
  /// and bumps the repro_* Stats counters.
  void allreduce_acc(std::span<repro::Superacc> accs) {
    // Canonical digits on the wire: merge() relies on both sides being
    // renormalized, and rank 0's broadcast limbs must already be canonical.
    for (auto& a : accs) a.renormalize();
    allreduce_body(check::CollectiveKind::kReproReduce,
                   trace::SpanKind::kReproMerge, accs,
                   accs.size() * repro::Superacc::kMergeFlops,
                   [](repro::Superacc& mine, const repro::Superacc& theirs) {
                     mine.merge(theirs);
                   });
    if (accs.empty()) return;
    auto& s = stats();
    ++s.repro_reductions;
    s.repro_values += accs.size();
  }

  /// `k` zeroed exact accumulators from a per-process buffer that only
  /// grows, so the repro mode's merges allocate nothing in steady state.
  /// The span stays valid until the next call.
  std::span<repro::Superacc> exact_accumulators(std::size_t k) {
    exact_accs_.assign(k, repro::Superacc{});
    return exact_accs_;
  }

  /// Allocations taken by the reusable all-reduce receive scratch (the
  /// tree levels of allreduce_body): backs the regression test that the per-level receive
  /// buffer allocation churn stays gone.
  [[nodiscard]] std::uint64_t coll_scratch_allocations() const {
    return coll_scratch_allocations_;
  }

  /// All-gather with per-rank block sizes `counts` (known by all, in
  /// elements).  `local` is this rank's block; `out` receives the whole
  /// concatenation.  This is the paper's "all-to-all broadcast of the local
  /// vector elements" used by the row-wise matrix-vector product.
  ///
  /// Algorithm selection mirrors the paper's Section 4 analysis: on a
  /// power-of-two hypercube we use recursive doubling (log NP start-ups,
  /// the `t_startup * log N_P + t_comm * n/N_P ...` form); otherwise the
  /// ring algorithm (NP-1 equal steps).
  template <class T>
  void allgatherv(std::span<const T> local, std::vector<T>& out,
                  const std::vector<std::size_t>& counts) {
    const int p = nprocs();
    HPFCG_REQUIRE(static_cast<int>(counts.size()) == p,
                  "allgatherv: counts must have one entry per rank");
    HPFCG_REQUIRE(local.size() == counts[static_cast<std::size_t>(rank_)],
                  "allgatherv: local block size disagrees with counts");
    const int seq = next_collective();

    std::vector<std::size_t> offset(counts.size() + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), offset.begin() + 1);
    // Local block sizes legitimately differ; the global total must agree.
    conform(check::CollectiveKind::kAllgatherv, check::kNoRoot, sizeof(T),
            offset.back());
    trace::SpanScope span(trace_, trace::SpanKind::kAllgatherv,
                          static_cast<std::uint32_t>(offset.back()),
                          offset.back() * sizeof(T), tree_depth());
    out.assign(offset.back(), T{});
    std::copy(local.begin(), local.end(),
              out.begin() + static_cast<std::ptrdiff_t>(
                                offset[static_cast<std::size_t>(rank_)]));
    if (p == 1) return;

    const bool pow2 = (p & (p - 1)) == 0;
    if (pow2 && cost().topology() == Topology::kHypercube) {
      // Recursive doubling: after step s this rank holds the blocks of the
      // 2^(s+1)-rank group it belongs to; each step exchanges the whole
      // held group with the partner across dimension s.
      for (int step = 0, group = 1; group < p; ++step, group <<= 1) {
        const int partner = rank_ ^ group;
        const int my_base = rank_ & ~(group - 1);
        const int partner_base = partner & ~(group - 1);
        const auto mb = static_cast<std::size_t>(my_base);
        const auto pb = static_cast<std::size_t>(partner_base);
        const std::size_t my_len =
            offset[mb + static_cast<std::size_t>(group)] - offset[mb];
        const std::size_t partner_len =
            offset[pb + static_cast<std::size_t>(group)] - offset[pb];
        send<T>(partner, coll_tag(seq, step),
                std::span<const T>(out.data() + offset[mb], my_len));
        recv_into<T>(partner, coll_tag(seq, step),
                     std::span<T>(out.data() + offset[pb], partner_len));
      }
      return;
    }

    const int right = (rank_ + 1) % p;
    const int left = (rank_ - 1 + p) % p;
    for (int step = 0; step < p - 1; ++step) {
      const int send_block = (rank_ - step + p) % p;
      const int recv_block = (rank_ - step - 1 + p) % p;
      const auto sb = static_cast<std::size_t>(send_block);
      const auto rb = static_cast<std::size_t>(recv_block);
      send<T>(right, coll_tag(seq, step),
              std::span<const T>(out.data() + offset[sb], counts[sb]));
      recv_into<T>(left, coll_tag(seq, step),
                   std::span<T>(out.data() + offset[rb], counts[rb]));
    }
  }

  /// Personalized all-to-all: `send_blocks[r]` goes to rank r; returns the
  /// blocks received, indexed by source rank.
  template <class T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& send_blocks) {
    const int p = nprocs();
    HPFCG_REQUIRE(static_cast<int>(send_blocks.size()) == p,
                  "alltoallv: need one block per destination rank");
    // Per-destination block sizes are legitimately rank-specific; only the
    // kind and element size are conformable.
    conform(check::CollectiveKind::kAlltoallv, check::kNoRoot, sizeof(T),
            check::kUnknownCount);
    trace::SpanScope span(trace_, trace::SpanKind::kAlltoallv, 0, 0,
                          tree_depth());
    if (trace_ != nullptr) {
      std::uint64_t b = 0;
      for (const auto& blk : send_blocks) b += blk.size() * sizeof(T);
      span.set_bytes(b);
    }
    const int seq = next_collective();
    std::vector<std::vector<T>> recv_blocks(static_cast<std::size_t>(p));
    recv_blocks[static_cast<std::size_t>(rank_)] =
        send_blocks[static_cast<std::size_t>(rank_)];
    // Sends are eager, so every block goes out before the first receive
    // and no rank waits on its ring neighbours' progress step by step.
    for (int off = 1; off < p; ++off) {
      const int dst = (rank_ + off) % p;
      const auto& blk = send_blocks[static_cast<std::size_t>(dst)];
      send<T>(dst, coll_tag(seq, off),
              std::span<const T>(blk.data(), blk.size()));
    }
    for (int off = 1; off < p; ++off) {
      const int src = (rank_ - off + p) % p;
      recv_blocks[static_cast<std::size_t>(src)] =
          recv<T>(src, coll_tag(seq, off));
    }
    return recv_blocks;
  }

  /// Personalized all-to-all whose sparsity pattern is replicated
  /// knowledge.  `recv_mask[s]` must be nonzero exactly when rank s's
  /// `send_blocks[rank()]` is nonempty — both sides derive the pattern from
  /// the same replicated metadata (e.g. old and new cut points), so empty
  /// pairs post no message at all.  This extends the zero-width no-op
  /// guarantee of the batch collectives to the all-to-all: ranks owning
  /// nothing (n < N_P) cost zero messages, and the conformance record is
  /// still posted on every rank, keeping the check ledger aligned.
  /// The self block never travels (copied directly, like alltoallv).
  template <class T>
  std::vector<std::vector<T>> alltoallv_masked(
      const std::vector<std::vector<T>>& send_blocks,
      const std::vector<std::uint8_t>& recv_mask) {
    const int p = nprocs();
    HPFCG_REQUIRE(static_cast<int>(send_blocks.size()) == p,
                  "alltoallv_masked: need one block per destination rank");
    HPFCG_REQUIRE(static_cast<int>(recv_mask.size()) == p,
                  "alltoallv_masked: need one mask entry per source rank");
    conform(check::CollectiveKind::kAlltoallv, check::kNoRoot, sizeof(T),
            check::kUnknownCount);
    trace::SpanScope span(trace_, trace::SpanKind::kAlltoallv, 0, 0,
                          tree_depth());
    if (trace_ != nullptr) {
      std::uint64_t b = 0;
      for (const auto& blk : send_blocks) b += blk.size() * sizeof(T);
      span.set_bytes(b);
    }
    const int seq = next_collective();
    std::vector<std::vector<T>> recv_blocks(static_cast<std::size_t>(p));
    recv_blocks[static_cast<std::size_t>(rank_)] =
        send_blocks[static_cast<std::size_t>(rank_)];
    for (int off = 1; off < p; ++off) {
      const int dst = (rank_ + off) % p;
      const int src = (rank_ - off + p) % p;
      const auto& blk = send_blocks[static_cast<std::size_t>(dst)];
      if (!blk.empty()) {
        send<T>(dst, coll_tag(seq, off),
                std::span<const T>(blk.data(), blk.size()));
      }
      if (recv_mask[static_cast<std::size_t>(src)] != 0) {
        recv_blocks[static_cast<std::size_t>(src)] =
            recv<T>(src, coll_tag(seq, off));
      }
    }
    return recv_blocks;
  }

  /// hpfcg::check hook: assert that a structure this rank built locally
  /// (e.g. a replicated matrix every rank assembles from the same source)
  /// is bit-identical machine-wide, by posting its content fingerprint to
  /// the conformance ledger.  No-op when checking is inactive; callers
  /// should guard fingerprint computation with checking_active().
  void conform_replicated(std::size_t fingerprint) {
    if (fingerprint == check::kUnknownCount) fingerprint = 0;  // avoid wildcard
    conform(check::CollectiveKind::kReplicatedBuild, check::kNoRoot, 0,
            fingerprint);
  }

  /// hpfcg::check hook for cached exchange executors (sparse::HaloPlan,
  /// the ext schedules): every rank entering a plan replay posts the
  /// plan's replicated fingerprint under kHaloExchange, so a rank executing a stale plan —
  /// e.g. one not rebuilt after a redistribute — is named by the ledger
  /// instead of deadlocking on an orphaned recv.  No-op when checking is
  /// inactive.
  void conform_halo(std::size_t elem_size, std::size_t topology_fingerprint) {
    if (topology_fingerprint == check::kUnknownCount) topology_fingerprint = 0;
    conform(check::CollectiveKind::kHaloExchange, check::kNoRoot, elem_size,
            topology_fingerprint);
  }

  /// True when the verification harness is observing this machine.
  [[nodiscard]] bool checking_active() const {
    return rt_.checker() != nullptr;
  }

  /// Advance this rank's modeled clock to at least `t` seconds, booking the
  /// difference as wait time.  Models blocking on a serialized predecessor.
  void wait_until(double t) {
    auto& s = stats();
    const double now = s.modeled_seconds();
    if (t > now) s.modeled_wait_seconds += t - now;
  }

  /// Run `f` on every rank in rank order (token-passed), then barrier.
  /// Used to reproduce loops whose inter-processor dependencies serialize
  /// execution (the paper's Scenario 2) and for ordered diagnostics.
  /// The token carries the predecessor's modeled clock, so the cost model
  /// sees the serialization: rank r's modeled time includes all of ranks
  /// 0..r-1's time inside the chain.
  void sequential(const std::function<void()>& f) {
    conform(check::CollectiveKind::kSequential, check::kNoRoot, 0, 0);
    trace::SpanScope span(trace_, trace::SpanKind::kSequential, 0, 0,
                          tree_depth());
    const int seq = next_collective();
    if (rank_ > 0) {
      const double pred_clock =
          recv_value<double>(rank_ - 1, coll_tag(seq, 0));
      wait_until(pred_clock);
    }
    f();
    if (rank_ + 1 < nprocs()) {
      send_value<double>(rank_ + 1, coll_tag(seq, 0),
                         stats().modeled_seconds());
    }
    barrier();
  }

 private:
  /// The binomial tree's up-walk toward `root` (ranks numbered relative to
  /// it): absorb each child in ascending mask order (`merge(child)`), then
  /// hand the partial to the parent (`send_up(parent)`).  The root only
  /// merges; a leaf only sends.  One of the two places the tree is walked.
  template <class Merge, class SendUp>
  void tree_reduce(int root, Merge&& merge, SendUp&& send_up) {
    const int p = nprocs();
    const int vr = rel_rank(root);
    for (int mask = 1; mask < p; mask <<= 1) {
      if ((vr & mask) != 0) {
        send_up(abs_rank(vr - mask, root));
        return;
      }
      if ((vr | mask) < p) merge(abs_rank(vr | mask, root));
    }
  }

  /// The binomial tree's down-walk from `root`, the mirror of tree_reduce:
  /// take the value from the parent (`recv_down(parent)`), then forward it
  /// to each child in descending mask order (`send_down(child)`).
  template <class RecvDown, class SendDown>
  void tree_bcast(int root, RecvDown&& recv_down, SendDown&& send_down) {
    const int p = nprocs();
    const int vr = rel_rank(root);
    int mask = 1;
    for (; mask < p; mask <<= 1) {
      if ((vr & mask) != 0) {
        recv_down(abs_rank(vr - mask, root));
        break;
      }
    }
    for (mask >>= 1; mask > 0; mask >>= 1) {
      if (vr + mask < p) send_down(abs_rank(vr + mask, root));
    }
  }

  /// The one all-reduce body, behind allreduce_vec, allreduce_batch (and so
  /// the scalar allreduce) and allreduce_acc.  It posts the ledger record
  /// (`kind`), and a width-0 call stops there: the machine-wide width
  /// agreement is checked, but no message moves and Stats stay untouched.
  /// Otherwise it enters the race fence and the span (`span_kind`), takes
  /// a sequence number, books the reduction, and walks the tree: up to
  /// rank 0 on phase 0, where each child's block lands in the receive
  /// scratch and folds in through `merge(mine, theirs)`, booking `flops`
  /// per block; then the merged block back down on phase 1.
  template <class T, class Merge>
  void allreduce_body(check::CollectiveKind kind, trace::SpanKind span_kind,
                      std::span<T> vals, std::uint64_t flops, Merge merge) {
    conform(kind, check::kNoRoot, sizeof(T), vals.size());
    if (vals.empty()) return;
    race_fence(check::to_string(kind));
    trace::SpanScope span(trace_, span_kind,
                          static_cast<std::uint32_t>(vals.size()),
                          vals.size_bytes(), tree_depth());
    const int seq = next_collective();
    note_reduction(vals.size());
    tree_reduce(
        0,
        [&](int child) {
          const std::span<T> other = coll_scratch<T>(vals.size());
          recv_into<T>(child, coll_tag(seq, 0), other);
          for (std::size_t i = 0; i < vals.size(); ++i) merge(vals[i], other[i]);
          add_flops(flops);
        },
        [&](int parent) {
          send<T>(parent, coll_tag(seq, 0), std::span<const T>(vals));
        });
    tree_bcast(
        0, [&](int parent) { recv_into<T>(parent, coll_tag(seq, 1), vals); },
        [&](int child) {
          send<T>(child, coll_tag(seq, 1), std::span<const T>(vals));
        });
  }

  /// The reproducible mode's re-route of a floating-point sum: lift each
  /// value into an exact accumulator, merge them with allreduce_acc, and
  /// round back.  Returns false, touching nothing, for any other reduction
  /// or with the mode off.
  template <class T, class Op>
  bool allreduce_exact(std::span<T> vals) {
    if constexpr (std::is_floating_point_v<T> && detail::kIsPlus<T, Op>) {
      if (!repro_active()) return false;
      const auto accs = exact_accumulators(vals.size());
      for (std::size_t i = 0; i < vals.size(); ++i) {
        accs[i].add(static_cast<double>(vals[i]));
      }
      allreduce_acc(accs);
      for (std::size_t i = 0; i < vals.size(); ++i) {
        vals[i] = static_cast<T>(accs[i].round());
      }
      return true;
    } else {
      return false;
    }
  }

  /// Reusable receive scratch for the tree levels of allreduce_body: one
  /// buffer grown to the high-water byte mark instead of a fresh buffer per
  /// tree level of every call — the same hoist as the sparse transpose
  /// scratch.  Only receiving (non-leaf) tree ranks ever touch it.  Contents
  /// are overwritten by recv_into before every read, so no initialization
  /// runs.
  template <class T>
  [[nodiscard]] std::span<T> coll_scratch(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = n * sizeof(T);
    if (coll_scratch_.capacity() < bytes) ++coll_scratch_allocations_;
    if (coll_scratch_.size() < bytes) coll_scratch_.resize(bytes);
    return {reinterpret_cast<T*>(coll_scratch_.data()), n};
  }

  /// Book one reduction-class collective merging `values` scalars (the
  /// benchmark currency of the communication-avoiding variants).
  void note_reduction(std::size_t values) {
    auto& s = stats();
    ++s.reductions;
    s.reduction_values += values;
  }

  [[nodiscard]] int rel_rank(int root) const {
    return (rank_ - root + nprocs()) % nprocs();
  }
  [[nodiscard]] int abs_rank(int vr, int root) const {
    return (vr + root) % nprocs();
  }

  int next_collective() {
    ++stats().collectives;
    return coll_seq_++;
  }

  /// hpfcg::check hook: post this rank's collective fingerprint to the
  /// conformance ledger (side channel — no messages, no Stats mutation).
  /// Throws util::Error naming the divergent rank on mismatch.
  void conform(check::CollectiveKind kind, int root, std::size_t elem,
               std::size_t count) {
    check::Harness* h = rt_.checker();
    if (h != nullptr) {
      h->on_collective(rank_, conf_seq_++,
                       check::CollectiveRecord{kind, root, elem, count});
    }
  }

  /// Collective-internal tags live above the user tag space.
  static int coll_tag(int seq, int step) {
    return kCollectiveTagBit | ((seq & 0x3FFFFF) << 8) | (step & 0xFF);
  }

  /// hpfcg::race hook: flag point-to-point messages still pending in this
  /// rank's mailbox as it enters a fence-class collective (`what`), when
  /// their sends are not ordered before the fence.  Side channel — never
  /// sends, never touches Stats.
  void race_fence(const char* what) {
    race::Detector* d = rt_.racer();
    if (d == nullptr || !d->detecting()) return;
    const auto pending = rt_.mailbox(rank_).pending_user_stamps();
    if (!pending.empty()) d->on_fence(rank_, what, pending);
  }

  void send_bytes(int dst, int tag, const void* data, std::size_t bytes) {
    HPFCG_REQUIRE(dst >= 0 && dst < nprocs(), "send: bad destination rank");
    trace::SpanScope span(trace_, trace::SpanKind::kSend,
                          static_cast<std::uint32_t>(dst), bytes);
    // Draw the envelope from the destination's freelist: small payloads are
    // stored inline, larger ones reuse a recycled buffer when one exists.
    Envelope env = rt_.mailbox(dst).make_envelope(rank_, tag, bytes);
    if (bytes > 0) std::memcpy(env.data(), data, bytes);
    if (race::Detector* d = rt_.racer()) d->on_send(rank_, env.race_stamp);
    auto& s = stats();
    ++s.messages_sent;
    s.bytes_sent += bytes;
    switch (env.path()) {
      case EnvelopePath::kInline: ++s.envelopes_inline; break;
      case EnvelopePath::kPooled: ++s.envelopes_pooled; break;
      case EnvelopePath::kHeap: ++s.envelopes_heap; break;
    }
    span.set_aux(static_cast<std::uint8_t>(env.path()));
    if (dst != rank_) s.modeled_comm_seconds += cost().params().t_startup;
    rt_.mailbox(dst).deposit(std::move(env));
    check::Harness* h = rt_.checker();
    if (h != nullptr) h->note_progress();
  }

  Envelope recv_bytes(int src, int tag, int* src_out = nullptr) {
    trace::SpanScope span(trace_, trace::SpanKind::kRecv,
                          src == kAnySource ? 0xFFFFFFFFu
                                            : static_cast<std::uint32_t>(src));
    check::Harness* h = rt_.checker();
    if (h != nullptr) h->begin_wait(rank_, check::WaitKind::kRecv, src, tag);
    Envelope env = rt_.mailbox(rank_).receive(src, tag);
    if (h != nullptr) h->end_wait(rank_);
    if (race::Detector* d = rt_.racer()) {
      d->on_receive(rank_, env.src, env.race_stamp);
    }
    auto& s = stats();
    ++s.messages_received;
    s.bytes_received += env.size();
    if (env.src != rank_) {
      s.modeled_comm_seconds +=
          cost().hops(env.src, rank_) * cost().params().t_hop +
          static_cast<double>(env.size()) * cost().params().t_comm;
    }
    span.set_peer(static_cast<std::uint32_t>(env.src));
    span.set_bytes(env.size());
    span.set_aux(static_cast<std::uint8_t>(env.path()));
    if (src_out != nullptr) *src_out = env.src;
    return env;
  }

  Runtime& rt_;
  int rank_;
  trace::RankTrace* trace_;
  std::vector<std::byte> coll_scratch_;
  std::uint64_t coll_scratch_allocations_ = 0;
  std::vector<repro::Superacc> exact_accs_;
  int coll_seq_ = 0;
  /// Conformance-relevant op count (collectives + barriers), advanced only
  /// while a check harness is attached; independent of the tag space.
  std::uint64_t conf_seq_ = 0;
};

}  // namespace hpfcg::msg
