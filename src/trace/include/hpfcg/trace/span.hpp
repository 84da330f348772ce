#pragma once
// Span records and the per-rank ring buffer they live in.
//
// Threading model: a RankTrace has exactly one writer — the simulated
// processor that owns it, which runs on its own OS thread inside
// Runtime::run().  Readers (exporters, model fitting, tests) only touch a
// ring after run() joins, so the thread join provides the happens-before
// edge and the hot path needs no synchronization at all: recording a span
// is two clock reads and one 40-byte store into preallocated storage.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpfcg::trace {

/// What a span measured.  Communication kinds mirror the msg runtime's
/// primitives one-to-one; phase kinds mirror the paper's per-iteration
/// cost table (matvec / dot / saxpy).
enum class SpanKind : std::uint8_t {
  // point-to-point
  kSend,
  kRecv,
  // collectives (a scalar allreduce is a width-1 kAllreduceBatch)
  kBarrier,
  kBroadcast,
  kAllreduceVec,
  kAllreduceBatch,
  kAllgatherv,
  kAlltoallv,
  kSequential,
  // hpf intrinsic phases
  kDot,
  kDotBatch,
  kAxpy,
  kAypx,
  // solver phases
  kMatvec,
  kPrecond,
  kIteration,
  // data migration (sparse::redistribute / hpf::redistribute callers):
  // bytes = payload this rank shipped, a = destination count
  kRedistribute,
  // any cached exchange-plan replay (sparse::HaloPlan, DistCsrGrid2D, the
  // ext gather/scatter-add schedules); bytes = payload this rank sent,
  // a = neighbor count, aux = 1 for the reverse (scatter-add) direction
  // (HaloPlan: 2 for a pipelined Gauss-Seidel sweep)
  kHalo,
  // legacy O(n) gather (DistributedVector::to_global): bytes = full vector
  kGatherFull,
  // reproducible-mode reduction (hpfcg::repro): one exact superaccumulator
  // all-reduce; a = batch width, bytes = width * sizeof(Superacc)
  kReproMerge,
  // one multigrid level's share of a V-cycle (solvers::MgPreconditioner):
  // a = level index (0 = finest), bytes = level rows * sizeof(double)
  kMgLevel,
};

/// Human-readable span kind (stable names; used by the Chrome exporter).
[[nodiscard]] const char* span_kind_name(SpanKind k);

/// Binomial-tree passes one span of kind `k` makes: 2 for the all-reduces
/// (up to rank 0, then back down), 1 for the broadcast, 0 for everything
/// that does not walk the tree.
[[nodiscard]] constexpr int tree_passes(SpanKind k) {
  switch (k) {
    case SpanKind::kAllreduceVec:
    case SpanKind::kAllreduceBatch:
    case SpanKind::kReproMerge: return 2;
    case SpanKind::kBroadcast: return 1;
    default: return 0;
  }
}

/// True for the reduction/broadcast tree collectives whose cost the paper
/// models as t_startup·depth + t_comm·bytes per tree pass.
[[nodiscard]] constexpr bool is_tree_collective(SpanKind k) {
  return tree_passes(k) > 0;
}

/// How an Envelope's payload was stored (Span::aux for kSend/kRecv).
enum class EnvelopePath : std::uint8_t { kInline = 0, kPooled = 1, kHeap = 2 };

/// One recorded interval.  Fixed-size POD so the ring never allocates.
struct Span {
  std::uint64_t t0_ns = 0;  ///< begin, ns since session origin
  std::uint64_t t1_ns = 0;  ///< end, ns since session origin
  std::uint64_t bytes = 0;  ///< payload bytes (p2p) / width·elem (collective)
  std::uint32_t a = 0;      ///< peer rank, batch width, or iteration index
  std::uint16_t depth = 0;  ///< collective tree depth ceil(log2 NP)
  SpanKind kind = SpanKind::kSend;
  std::uint8_t aux = 0;     ///< EnvelopePath for kSend/kRecv; solver id etc.

  [[nodiscard]] double seconds() const {
    return static_cast<double>(t1_ns - t0_ns) * 1e-9;
  }
};

/// One per-iteration sample from the solver metrics channel: the residual
/// plus cumulative Stats counters at the moment the iteration closed, so
/// consumers difference neighbors to get per-iteration merges/bytes.
struct IterationMetrics {
  std::uint64_t t_ns = 0;
  std::uint64_t iteration = 0;
  double residual = 0.0;
  std::uint64_t reductions = 0;        ///< cumulative Stats.reductions
  std::uint64_t reduction_values = 0;  ///< cumulative Stats.reduction_values
  std::uint64_t bytes_moved = 0;       ///< cumulative sent + received bytes
  std::uint64_t messages = 0;          ///< cumulative sent + received count
  std::uint64_t flops = 0;             ///< cumulative Stats.flops
};

/// Fixed-capacity span ring for one rank.  Single-writer (the owning
/// rank's thread); read only after the machine joins.
class RankTrace {
 public:
  RankTrace(std::size_t span_capacity,
            std::chrono::steady_clock::time_point origin);

  RankTrace(const RankTrace&) = delete;
  RankTrace& operator=(const RankTrace&) = delete;
  RankTrace(RankTrace&&) = default;
  RankTrace& operator=(RankTrace&&) = default;

  /// Nanoseconds since the owning session's origin.
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  /// Append a span; wraps over the oldest record when full (counted).
  void record(const Span& s) {
    if (spans_.empty()) return;
    spans_[static_cast<std::size_t>(head_ % spans_.size())] = s;
    ++head_;
  }

  /// Append an iteration-metrics sample (same wrap policy).
  void note_iteration(const IterationMetrics& m) {
    if (iters_.empty()) return;
    iters_[static_cast<std::size_t>(iter_head_ % iters_.size())] = m;
    ++iter_head_;
  }

  /// Spans in record order, oldest first (post-run only).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Iteration metrics in record order, oldest first (post-run only).
  [[nodiscard]] std::vector<IterationMetrics> iterations() const;

  /// Total spans ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const { return head_; }

  /// Spans lost to ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const {
    const auto cap = static_cast<std::uint64_t>(spans_.size());
    return head_ > cap ? head_ - cap : 0;
  }

  [[nodiscard]] std::size_t capacity() const { return spans_.size(); }

  /// Forget everything recorded so far (between benchmark phases).
  void clear() {
    head_ = 0;
    iter_head_ = 0;
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;             // preallocated ring storage
  std::vector<IterationMetrics> iters_; // preallocated ring storage
  std::uint64_t head_ = 0;
  std::uint64_t iter_head_ = 0;
};

/// RAII span guard: stamps the begin time at construction and records the
/// span at scope exit.  A null RankTrace (tracing off) makes every member
/// a no-op — the clock is never read.
class SpanScope {
 public:
  SpanScope(RankTrace* t, SpanKind kind, std::uint32_t a = 0,
            std::uint64_t bytes = 0, std::uint16_t depth = 0,
            std::uint8_t aux = 0)
      : t_(t) {
    if (t_ == nullptr) return;
    s_.kind = kind;
    s_.a = a;
    s_.bytes = bytes;
    s_.depth = depth;
    s_.aux = aux;
    s_.t0_ns = t_->now_ns();
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() {
    if (t_ == nullptr) return;
    s_.t1_ns = t_->now_ns();
    t_->record(s_);
  }

  // Facts that are only known mid-span (actual sender, payload size,
  // storage path) are patched in before the scope closes.
  void set_bytes(std::uint64_t bytes) {
    if (t_ != nullptr) s_.bytes = bytes;
  }
  void set_peer(std::uint32_t peer) {
    if (t_ != nullptr) s_.a = peer;
  }
  void set_aux(std::uint8_t aux) {
    if (t_ != nullptr) s_.aux = aux;
  }

 private:
  RankTrace* t_;
  Span s_{};
};

}  // namespace hpfcg::trace
