// The fused reductions must be drop-in replacements for sequences of
// scalar merges: allreduce_batch over k values walks the same rank-order
// binomial tree as k scalar allreduce calls, so the results are required
// to be BIT-identical — not just close — for every machine size,
// including non-powers of two, and for k = 0, 1 and widths past the
// inline/stack fast paths.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/repro/repro.hpp"
#include "spmd_test_util.hpp"

using hpfcg::msg::Process;
using hpfcg_test::run_spmd;
using hpfcg_test::test_machine_sizes;

namespace {

/// Deterministic per-rank inputs with enough bit variety that a wrong
/// reduction order shows up in the low mantissa bits.
double value_for(int rank, std::size_t i) {
  return std::sin(static_cast<double>(rank + 1) * 0.7 +
                  static_cast<double>(i) * 1.3) *
         (1.0 + static_cast<double>(i % 5));
}

class BatchCollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchCollectivesTest, AllreduceBatchBitIdenticalToScalarSequence) {
  const int np = GetParam();
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{5}}) {
    run_spmd(np, [k](Process& p) {
      std::vector<double> batch(k), scalar(k);
      for (std::size_t i = 0; i < k; ++i) {
        batch[i] = scalar[i] = value_for(p.rank(), i);
      }
      p.allreduce_batch<double>(batch);
      for (std::size_t i = 0; i < k; ++i) {
        scalar[i] = p.allreduce(scalar[i]);
      }
      for (std::size_t i = 0; i < k; ++i) {
        // Same binomial tree => same association order => same bits.
        EXPECT_EQ(batch[i], scalar[i]) << "k=" << k << " i=" << i;
      }
    });
  }
}

TEST_P(BatchCollectivesTest, AllreduceBatchLargeWidthTakesHeapPaths) {
  // Width past the 64-byte inline envelope (8 doubles) AND past the
  // 16-element partner stack buffer: both heap paths must stay exact.
  const int np = GetParam();
  const std::size_t k = 37;
  run_spmd(np, [k](Process& p) {
    std::vector<double> batch(k), scalar(k);
    for (std::size_t i = 0; i < k; ++i) {
      batch[i] = scalar[i] = value_for(p.rank(), i);
    }
    p.allreduce_batch<double>(batch);
    for (std::size_t i = 0; i < k; ++i) scalar[i] = p.allreduce(scalar[i]);
    for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(batch[i], scalar[i]);
  });
}

TEST_P(BatchCollectivesTest, AllreduceBatchWidthZeroIsHarmless) {
  const int np = GetParam();
  run_spmd(np, [](Process& p) {
    std::vector<double> empty;
    p.allreduce_batch<double>(empty);
    // The machine stays usable and ordered afterwards.
    const double v = p.allreduce(1.0);
    EXPECT_DOUBLE_EQ(v, static_cast<double>(p.nprocs()));
  });
}

TEST_P(BatchCollectivesTest, AllreduceBatchCustomOp) {
  const int np = GetParam();
  run_spmd(np, [np](Process& p) {
    std::vector<std::int64_t> v = {p.rank(), -p.rank(), 7};
    p.allreduce_batch<std::int64_t>(
        v, [](std::int64_t a, std::int64_t b) { return a > b ? a : b; });
    EXPECT_EQ(v[0], np - 1);
    EXPECT_EQ(v[1], 0);
    EXPECT_EQ(v[2], 7);
  });
}

TEST_P(BatchCollectivesTest, ScalarAllreduceIsAWidthOneBatch) {
  // One all-reduce path: a scalar allreduce IS a width-1 batch, so the two
  // forms agree on every result bit and on every Stats counter (messages,
  // collectives, reductions, merge flops), for a sum and a max, in plain
  // mode and under the reproducible mode's exact merge.
  const int np = GetParam();
  const auto max = [](int a, int b) { return a > b ? a : b; };
  for (const bool exact : {false, true}) {
    hpfcg::repro::ScopedEnable mode(exact);
    std::vector<double> sums[2];
    std::vector<int> maxes[2];
    hpfcg::msg::Stats totals[2];
    for (const bool scalar : {false, true}) {
      auto& sum = sums[scalar ? 1 : 0];
      auto& mx = maxes[scalar ? 1 : 0];
      sum.assign(static_cast<std::size_t>(np), 0.0);
      mx.assign(static_cast<std::size_t>(np), 0);
      auto rt = run_spmd(np, [&](Process& p) {
        double s = value_for(p.rank(), 3);
        int m = (p.rank() * 5) % 3;
        if (scalar) {
          s = p.allreduce(s);
          m = p.allreduce<int>(m, max);
        } else {
          p.allreduce_batch<double>(std::span<double>(&s, 1));
          p.allreduce_batch<int>(std::span<int>(&m, 1), max);
        }
        sum[static_cast<std::size_t>(p.rank())] = s;
        mx[static_cast<std::size_t>(p.rank())] = m;
      });
      totals[scalar ? 1 : 0] = rt->total_stats();
    }
    for (int r = 0; r < np; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[1][ur]),
                std::bit_cast<std::uint64_t>(sums[0][ur]))
          << "exact=" << exact << " rank " << r;
      EXPECT_EQ(maxes[1][ur], maxes[0][ur]) << "exact=" << exact;
    }
    EXPECT_TRUE(hpfcg::msg::counters_identical(totals[1], totals[0]))
        << "exact=" << exact;
    EXPECT_EQ(totals[1].collectives, 2u * static_cast<std::uint64_t>(np))
        << "exact=" << exact;
  }
}

TEST_P(BatchCollectivesTest, BatchPaysOneTreeOfMessages) {
  // The point of fusing: a width-k batch moves exactly as many messages as
  // ONE scalar allreduce — the per-hop start-up is paid once, not k times.
  const int np = GetParam();
  const std::size_t k = 4;
  const auto count_messages = [&](bool fused) {
    auto rt = run_spmd(np, [&](Process& p) {
      std::vector<double> v(k, static_cast<double>(p.rank()));
      if (fused) {
        p.allreduce_batch<double>(v);
      } else {
        for (auto& x : v) x = p.allreduce(x);
      }
    });
    return rt->total_stats().messages_sent;
  };
  const auto one_scalar = [&] {
    auto rt = run_spmd(np, [](Process& p) { (void)p.allreduce(1.0); });
    return rt->total_stats().messages_sent;
  };
  EXPECT_EQ(count_messages(true), one_scalar());
  if (np > 1) {
    EXPECT_EQ(count_messages(false), k * one_scalar());
  }
}

TEST_P(BatchCollectivesTest, ReductionCountersTrackBatchWidth) {
  const int np = GetParam();
  auto rt = run_spmd(np, [](Process& p) {
    std::vector<double> v3(3, 1.0);
    p.allreduce_batch<double>(v3);   // 1 reduction, 3 values
    (void)p.allreduce(2.0);          // 1 reduction, 1 value
    std::vector<double> v2(2, 1.0);
    p.allreduce_vec(v2);             // 1 reduction, 2 values
  });
  for (int r = 0; r < np; ++r) {
    EXPECT_EQ(rt->stats(r).reductions, 3u);
    EXPECT_EQ(rt->stats(r).reduction_values, 6u);
  }
}

TEST_P(BatchCollectivesTest, WidthZeroIsCommunicationFree) {
  // Regression: a width-0 batch used to book a collective and walk the
  // coll_tag sequence, and a width-0 allreduce_vec sent 2(NP-1) empty
  // messages.  Both must now be pure no-ops: no messages, no collective,
  // no reduction booked — every Stats counter stays exactly where it was.
  const int np = GetParam();
  auto rt = run_spmd(np, [](Process& p) {
    const hpfcg::msg::Stats before = p.stats();
    std::vector<double> empty;
    p.allreduce_batch<double>(empty);
    p.allreduce_vec(empty);
    const hpfcg::msg::Stats& after = p.stats();
    EXPECT_EQ(after.messages_sent, before.messages_sent);
    EXPECT_EQ(after.messages_received, before.messages_received);
    EXPECT_EQ(after.bytes_sent, before.bytes_sent);
    EXPECT_EQ(after.collectives, before.collectives);
    EXPECT_EQ(after.reductions, before.reductions);
    EXPECT_EQ(after.reduction_values, before.reduction_values);
    EXPECT_EQ(after.modeled_comm_seconds, before.modeled_comm_seconds);
  });
  EXPECT_EQ(rt->total_stats().reductions, 0u);
}

TEST_P(BatchCollectivesTest, WidthZeroAgreesUnderConformanceChecking) {
  // The empty form must not trip the HPFCG_CHECK ledger even when other
  // collectives surround it — all ranks skip it symmetrically, so the tag
  // sequence stays aligned machine-wide.
  if (!hpfcg::check::kCompiled) GTEST_SKIP() << "check compiled out";
  hpfcg::check::ScopedEnable guard(true);
  const int np = GetParam();
  run_spmd(np, [](Process& p) {
    (void)p.allreduce(1.0);
    std::vector<double> empty;
    p.allreduce_batch<double>(empty);
    std::vector<double> three(3, static_cast<double>(p.rank()));
    p.allreduce_batch<double>(three);
    p.allreduce_vec(empty);
    const double v = p.allreduce(2.0);
    EXPECT_DOUBLE_EQ(v, 2.0 * p.nprocs());
  });
}

TEST_P(BatchCollectivesTest, EmptyDotProductsIsANoOpEvenUnderCheck) {
  using hpfcg::hpf::Distribution;
  using hpfcg::hpf::DistributedVector;
  const int np = GetParam();
  hpfcg::check::ScopedEnable guard(hpfcg::check::kCompiled);
  auto rt = run_spmd(np, [](Process& p) {
    DistributedVector<double> x(
        p, std::make_shared<const Distribution>(
               Distribution::block(16, p.nprocs())));
    auto y = DistributedVector<double>::aligned_like(x);
    hpfcg::hpf::fill(x, 1.0);
    hpfcg::hpf::fill(y, 2.0);
    const hpfcg::msg::Stats before = p.stats();
    std::span<const hpfcg::hpf::DotPair<double>> no_pairs;
    std::span<double> no_out;
    hpfcg::hpf::dot_products<double>(no_pairs, no_out);
    EXPECT_EQ(p.stats().reductions, before.reductions);
    EXPECT_EQ(p.stats().messages_sent, before.messages_sent);
    EXPECT_EQ(p.stats().flops, before.flops);
    // The machine is still usable and ordered.
    EXPECT_NEAR(hpfcg::hpf::dot_product(x, y), 32.0, 1e-12);
  });
  EXPECT_EQ(rt->total_stats().reductions,
            static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, BatchCollectivesTest,
                         ::testing::ValuesIn(test_machine_sizes()));

}  // namespace
