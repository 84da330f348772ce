// Integration tests for tracing woven into the msg runtime: Session
// lifetime mirrors check::Harness, spans carry kind/width/depth/envelope
// path, the solver metrics channel publishes residuals, and — the contract
// the whole subsystem hangs on — Stats are bit-identical with tracing off,
// on, or compiled out.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "hpfcg/msg/process.hpp"
#include "hpfcg/msg/runtime.hpp"
#include "hpfcg/trace/trace.hpp"
#include "spmd_test_util.hpp"

namespace trace = hpfcg::trace;
using hpfcg::msg::Process;
using hpfcg::msg::Stats;
using hpfcg_test::run_spmd;

namespace {

std::vector<trace::Span> spans_of_kind(const trace::RankTrace& t,
                                       trace::SpanKind kind) {
  std::vector<trace::Span> out;
  for (const auto& s : t.spans()) {
    if (s.kind == kind) out.push_back(s);
  }
  return out;
}

TEST(RuntimeTrace, SessionExistsOnlyWhenEnabled) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  {
    trace::ScopedEnable off(false);
    hpfcg::msg::Runtime rt(2);
    EXPECT_EQ(rt.tracer(), nullptr);
  }
  {
    trace::ScopedEnable on(true);
    hpfcg::msg::Runtime rt(2);
    ASSERT_NE(rt.tracer(), nullptr);
    EXPECT_EQ(rt.tracer()->nprocs(), 2);
  }
}

TEST(RuntimeTrace, CollectiveSpansCarryKindWidthAndDepth) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  trace::ScopedEnable on(true);
  for (const int np : hpfcg_test::test_machine_sizes()) {
    auto rt = run_spmd(np, [](Process& p) {
      std::vector<double> vals(3, static_cast<double>(p.rank()));
      p.allreduce_batch(std::span<double>(vals));
      p.barrier();
    });
    ASSERT_NE(rt->tracer(), nullptr);
    for (int r = 0; r < np; ++r) {
      const auto batches = spans_of_kind(rt->tracer()->rank(r),
                                         trace::SpanKind::kAllreduceBatch);
      ASSERT_EQ(batches.size(), 1u) << "np=" << np << " rank=" << r;
      EXPECT_EQ(batches[0].a, 3u);
      EXPECT_EQ(batches[0].bytes, 3 * sizeof(double));
      // depth = ceil(log2 np)
      int d = 0;
      while ((1 << d) < np) ++d;
      EXPECT_EQ(batches[0].depth, d) << "np=" << np;
      const auto barriers =
          spans_of_kind(rt->tracer()->rank(r), trace::SpanKind::kBarrier);
      EXPECT_EQ(barriers.size(), 1u);
    }
  }
}

TEST(RuntimeTrace, SendRecvSpansCarryPeerAndEnvelopePath) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  trace::ScopedEnable on(true);
  auto rt = run_spmd(2, [](Process& p) {
    const std::vector<double> big(64, 1.0);  // 512 B: heap envelope
    const double small = 2.0;                // 8 B: inline envelope
    if (p.rank() == 0) {
      p.send_value(1, 7, small);
      p.send(1, 8, std::span<const double>(big.data(), big.size()));
    } else {
      (void)p.recv_value<double>(0, 7);
      (void)p.recv<double>(0, 8);
    }
  });
  ASSERT_NE(rt->tracer(), nullptr);
  const auto sends =
      spans_of_kind(rt->tracer()->rank(0), trace::SpanKind::kSend);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].a, 1u);
  EXPECT_EQ(sends[0].bytes, sizeof(double));
  EXPECT_EQ(sends[0].aux,
            static_cast<std::uint8_t>(trace::EnvelopePath::kInline));
  EXPECT_EQ(sends[1].bytes, 64 * sizeof(double));
  EXPECT_NE(sends[1].aux,
            static_cast<std::uint8_t>(trace::EnvelopePath::kInline));
  const auto recvs =
      spans_of_kind(rt->tracer()->rank(1), trace::SpanKind::kRecv);
  ASSERT_EQ(recvs.size(), 2u);
  EXPECT_EQ(recvs[0].a, 0u);  // actual sender patched in
  EXPECT_EQ(recvs[0].bytes, sizeof(double));
}

TEST(RuntimeTrace, IterationMetricsChannelPublishesResiduals) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  trace::ScopedEnable on(true);
  auto rt = run_spmd(2, [](Process& p) {
    for (int k = 0; k < 3; ++k) {
      double v = 1.0;
      p.allreduce(v);
      p.trace_iteration(static_cast<std::uint64_t>(k),
                        1.0 / static_cast<double>(k + 1));
    }
  });
  ASSERT_NE(rt->tracer(), nullptr);
  const auto iters = rt->tracer()->rank(0).iterations();
  ASSERT_EQ(iters.size(), 3u);
  EXPECT_EQ(iters[2].iteration, 2u);
  EXPECT_DOUBLE_EQ(iters[2].residual, 1.0 / 3.0);
  // Cumulative counters are nondecreasing along the channel.
  EXPECT_GE(iters[2].reductions, iters[0].reductions);
  EXPECT_GE(iters[2].bytes_moved, iters[0].bytes_moved);
  EXPECT_GT(iters[2].reductions, 0u);
}

/// The tentpole contract: tracing must never perturb the machine's
/// observable behavior.  Same workload, tracing off vs on — every Stats
/// field must match bit for bit.
TEST(RuntimeTrace, StatsBitIdenticalWithTracingOnAndOff) {
  const auto workload = [](Process& p) {
    std::vector<double> vals(4, static_cast<double>(p.rank() + 1));
    p.allreduce_batch(std::span<double>(vals));
    p.barrier();
    std::vector<double> buf(10, p.rank() == 0 ? 3.0 : 0.0);
    p.broadcast_into<double>(0, buf);
    (void)p.allreduce(static_cast<double>(p.rank()));
  };
  std::vector<Stats> off_stats, on_stats;
  for (const int np : hpfcg_test::test_machine_sizes()) {
    {
      trace::ScopedEnable off(false);
      auto rt = run_spmd(np, workload);
      off_stats.push_back(rt->total_stats());
    }
    {
      trace::ScopedEnable on(true);
      auto rt = run_spmd(np, workload);
      on_stats.push_back(rt->total_stats());
    }
  }
  ASSERT_EQ(off_stats.size(), on_stats.size());
  for (std::size_t i = 0; i < off_stats.size(); ++i) {
    EXPECT_TRUE(hpfcg::msg::counters_identical(off_stats[i], on_stats[i]))
        << "i=" << i;
  }
}

TEST(RuntimeTrace, RingCapacityIsRespectedAndDropsAreCounted) {
  if (!trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  trace::ScopedEnable on(true);
  const std::size_t prev = trace::ring_capacity();
  trace::set_ring_capacity(8);
  auto rt = run_spmd(2, [](Process& p) {
    for (int i = 0; i < 100; ++i) p.barrier();
  });
  trace::set_ring_capacity(prev);
  ASSERT_NE(rt->tracer(), nullptr);
  const auto& t = rt->tracer()->rank(0);
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.spans().size(), 8u);
  EXPECT_EQ(t.recorded(), 100u);
  EXPECT_EQ(t.dropped(), 92u);
}

}  // namespace
