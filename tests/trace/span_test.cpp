// Unit tests for the trace span ring: capacity, wrap-around accounting,
// oldest-first snapshots, SpanScope null-safety, and the iteration-metrics
// channel.  These exercise RankTrace directly (no simulated machine).

#include <gtest/gtest.h>

#include <chrono>

#include "hpfcg/trace/session.hpp"
#include "hpfcg/trace/span.hpp"

namespace trace = hpfcg::trace;

namespace {

trace::Span make_span(std::uint64_t t0, trace::SpanKind kind,
                      std::uint32_t a = 0) {
  trace::Span s;
  s.t0_ns = t0;
  s.t1_ns = t0 + 100;
  s.kind = kind;
  s.a = a;
  return s;
}

TEST(RankTrace, RecordsInOrderUpToCapacity) {
  trace::RankTrace t(8, std::chrono::steady_clock::now());
  EXPECT_EQ(t.capacity(), 8u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    t.record(make_span(i, trace::SpanKind::kSend, i));
  }
  EXPECT_EQ(t.recorded(), 5u);
  EXPECT_EQ(t.dropped(), 0u);
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(spans[i].a, i);
}

TEST(RankTrace, WrapsOverOldestAndCountsDropped) {
  trace::RankTrace t(4, std::chrono::steady_clock::now());
  for (std::uint32_t i = 0; i < 10; ++i) {
    t.record(make_span(i, trace::SpanKind::kRecv, i));
  }
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest surviving span first: 6, 7, 8, 9.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].a, 6 + i);
}

TEST(RankTrace, ClearForgetsEverything) {
  trace::RankTrace t(4, std::chrono::steady_clock::now());
  t.record(make_span(0, trace::SpanKind::kBarrier));
  t.note_iteration({});
  t.clear();
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.spans().empty());
  EXPECT_TRUE(t.iterations().empty());
}

TEST(RankTrace, IterationMetricsChannelKeepsOrder) {
  trace::RankTrace t(16, std::chrono::steady_clock::now());
  for (std::uint64_t k = 0; k < 5; ++k) {
    trace::IterationMetrics m;
    m.iteration = k;
    m.residual = 1.0 / static_cast<double>(k + 1);
    m.reductions = k * 2;
    t.note_iteration(m);
  }
  const auto iters = t.iterations();
  ASSERT_EQ(iters.size(), 5u);
  for (std::uint64_t k = 0; k < 5; ++k) {
    EXPECT_EQ(iters[k].iteration, k);
    EXPECT_EQ(iters[k].reductions, k * 2);
  }
}

TEST(SpanScope, NullTracerIsANoOp) {
  // Must not crash and must not read the clock; nothing observable, so the
  // assertion is simply that all members are callable.
  trace::SpanScope s(nullptr, trace::SpanKind::kDot, 1, 8);
  s.set_bytes(16);
  s.set_peer(3);
  s.set_aux(1);
}

TEST(SpanScope, RecordsOnScopeExitWithPatches) {
  trace::RankTrace t(4, std::chrono::steady_clock::now());
  {
    trace::SpanScope s(&t, trace::SpanKind::kSend, 1, 8);
    s.set_peer(3);
    s.set_bytes(64);
    s.set_aux(static_cast<std::uint8_t>(trace::EnvelopePath::kPooled));
    EXPECT_EQ(t.recorded(), 0u);  // not yet closed
  }
  ASSERT_EQ(t.recorded(), 1u);
  const auto spans = t.spans();
  EXPECT_EQ(spans[0].kind, trace::SpanKind::kSend);
  EXPECT_EQ(spans[0].a, 3u);
  EXPECT_EQ(spans[0].bytes, 64u);
  EXPECT_EQ(spans[0].aux,
            static_cast<std::uint8_t>(trace::EnvelopePath::kPooled));
  EXPECT_GE(spans[0].t1_ns, spans[0].t0_ns);
}

TEST(Session, RanksShareOneOrigin) {
  trace::Session s(3, 16);
  EXPECT_EQ(s.nprocs(), 3);
  s.rank(0).record(make_span(0, trace::SpanKind::kBarrier));
  s.rank(2).record(make_span(0, trace::SpanKind::kBarrier));
  EXPECT_EQ(s.total_recorded(), 2u);
  EXPECT_EQ(s.total_dropped(), 0u);
  s.clear();
  EXPECT_EQ(s.total_recorded(), 0u);
}

TEST(SpanKinds, NamesAreStableAndTreePredicateMatches) {
  EXPECT_STREQ(trace::span_kind_name(trace::SpanKind::kAllreduceBatch),
               "allreduce_batch");
  EXPECT_STREQ(trace::span_kind_name(trace::SpanKind::kMatvec), "matvec");
  EXPECT_TRUE(trace::is_tree_collective(trace::SpanKind::kBroadcast));
  EXPECT_TRUE(trace::is_tree_collective(trace::SpanKind::kAllreduceBatch));
  EXPECT_FALSE(trace::is_tree_collective(trace::SpanKind::kSend));
  EXPECT_FALSE(trace::is_tree_collective(trace::SpanKind::kBarrier));
  EXPECT_FALSE(trace::is_tree_collective(trace::SpanKind::kIteration));
  EXPECT_EQ(trace::tree_passes(trace::SpanKind::kAllreduceVec), 2);
  EXPECT_EQ(trace::tree_passes(trace::SpanKind::kBroadcast), 1);
  EXPECT_EQ(trace::tree_passes(trace::SpanKind::kAllgatherv), 0);
}

}  // namespace
