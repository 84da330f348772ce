#include "hpfcg/trace/session.hpp"

#include <algorithm>

namespace hpfcg::trace {

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSend: return "send";
    case SpanKind::kRecv: return "recv";
    case SpanKind::kBarrier: return "barrier";
    case SpanKind::kBroadcast: return "broadcast";
    case SpanKind::kAllreduceVec: return "allreduce_vec";
    case SpanKind::kAllreduceBatch: return "allreduce_batch";
    case SpanKind::kAllgatherv: return "allgatherv";
    case SpanKind::kAlltoallv: return "alltoallv";
    case SpanKind::kSequential: return "sequential";
    case SpanKind::kDot: return "dot";
    case SpanKind::kDotBatch: return "dot_batch";
    case SpanKind::kAxpy: return "axpy";
    case SpanKind::kAypx: return "aypx";
    case SpanKind::kMatvec: return "matvec";
    case SpanKind::kPrecond: return "precond";
    case SpanKind::kIteration: return "iteration";
    case SpanKind::kRedistribute: return "redistribute";
    case SpanKind::kHalo: return "halo";
    case SpanKind::kGatherFull: return "gather_full";
    case SpanKind::kReproMerge: return "repro_merge";
    case SpanKind::kMgLevel: return "mg_level";
  }
  return "?";
}

RankTrace::RankTrace(std::size_t span_capacity,
                     std::chrono::steady_clock::time_point origin)
    : origin_(origin) {
  spans_.resize(std::max<std::size_t>(span_capacity, 1));
  // Iteration samples are far sparser than spans (one per solver
  // iteration, not one per message); a smaller ring keeps the footprint
  // proportionate while still holding every iteration of any realistic
  // solve.
  iters_.resize(std::clamp<std::size_t>(span_capacity / 8, 64, 8192));
}

std::vector<Span> RankTrace::spans() const {
  std::vector<Span> out;
  const auto cap = static_cast<std::uint64_t>(spans_.size());
  const std::uint64_t n = std::min(head_, cap);
  out.reserve(static_cast<std::size_t>(n));
  const std::uint64_t first = head_ - n;  // oldest surviving record
  for (std::uint64_t i = first; i < head_; ++i) {
    out.push_back(spans_[static_cast<std::size_t>(i % cap)]);
  }
  return out;
}

std::vector<IterationMetrics> RankTrace::iterations() const {
  std::vector<IterationMetrics> out;
  const auto cap = static_cast<std::uint64_t>(iters_.size());
  const std::uint64_t n = std::min(iter_head_, cap);
  out.reserve(static_cast<std::size_t>(n));
  const std::uint64_t first = iter_head_ - n;
  for (std::uint64_t i = first; i < iter_head_; ++i) {
    out.push_back(iters_[static_cast<std::size_t>(i % cap)]);
  }
  return out;
}

Session::Session(int nprocs, std::size_t span_capacity)
    : origin_(std::chrono::steady_clock::now()) {
  ranks_.reserve(static_cast<std::size_t>(nprocs > 0 ? nprocs : 1));
  for (int r = 0; r < std::max(nprocs, 1); ++r) {
    ranks_.push_back(std::make_unique<RankTrace>(span_capacity, origin_));
  }
}

std::uint64_t Session::total_recorded() const {
  std::uint64_t n = 0;
  for (const auto& r : ranks_) n += r->recorded();
  return n;
}

std::uint64_t Session::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : ranks_) n += r->dropped();
  return n;
}

void Session::clear() {
  for (auto& r : ranks_) r->clear();
}

}  // namespace hpfcg::trace
