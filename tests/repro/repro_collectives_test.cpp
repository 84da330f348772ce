// SPMD tests for the reproducible-reduction collectives: with HPFCG_REPRO
// on, allreduce / allreduce_vec / allreduce_batch over doubles return the
// correctly rounded exact sum (computed serially with the same
// superaccumulator), the batch form is bit-identical to k scalar merges on
// every machine size, the Stats counters account the mode, and the hoisted
// collective scratch buffer allocates exactly once (satellite regression).

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "hpfcg/msg/process.hpp"
#include "hpfcg/msg/runtime.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/repro/superacc.hpp"
#include "spmd_test_util.hpp"

namespace repro = hpfcg::repro;
using hpfcg::msg::Process;
using hpfcg_test::run_spmd;
using hpfcg_test::test_machine_sizes;

namespace {

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Rank r's contribution to element i: deterministic, sign-mixed, spanning
/// ~1e±15 so naive summation order visibly matters.
double contribution(int r, std::size_t i) {
  const int e = static_cast<int>((static_cast<std::size_t>(r) * 13 + i * 7) %
                                 100) - 50;
  const double sign = ((static_cast<std::size_t>(r) + i) % 2 == 0) ? 1.0 : -1.0;
  return sign * std::ldexp(1.0 + 0.37 * static_cast<double>(r) +
                               0.011 * static_cast<double>(i),
                           e);
}

/// The correctly rounded exact sum of all ranks' contributions to element i.
double exact_sum(int np, std::size_t i) {
  repro::Superacc acc;
  for (int r = 0; r < np; ++r) acc.add(contribution(r, i));
  return acc.round();
}

class ReproCollectivesTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!repro::kCompiled) GTEST_SKIP() << "repro mode compiled out";
  }
};

TEST_P(ReproCollectivesTest, ScalarAllreduceReturnsCorrectlyRoundedSum) {
  const int np = GetParam();
  repro::ScopedEnable on;
  run_spmd(np, [&](Process& p) {
    const double got = p.allreduce(contribution(p.rank(), 0));
    EXPECT_EQ(bits_of(got), bits_of(exact_sum(np, 0))) << "rank " << p.rank();
    // Cancellation within one merge: ranks 0/1 carry ±1e16, the rest tiny
    // addends a float tree can lose against the big pair.  The exact merge
    // keeps them and rounds once.
    const double mine = p.rank() == 0   ? 1e16
                        : p.rank() == 1 ? -1e16
                                        : 1e-16;
    repro::Superacc ref;
    ref.add(1e16);
    if (np > 1) ref.add(-1e16);
    for (int r = 2; r < np; ++r) ref.add(1e-16);
    EXPECT_EQ(bits_of(p.allreduce(mine)), bits_of(ref.round()));
  });
}

TEST_P(ReproCollectivesTest, AllreduceVecMatchesSerialExactPerElement) {
  const int np = GetParam();
  constexpr std::size_t kN = 37;
  repro::ScopedEnable on;
  run_spmd(np, [&](Process& p) {
    std::vector<double> buf(kN);
    for (std::size_t i = 0; i < kN; ++i) buf[i] = contribution(p.rank(), i);
    p.allreduce_vec(buf);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(bits_of(buf[i]), bits_of(exact_sum(np, i)))
          << "rank " << p.rank() << " element " << i;
    }
  });
}

TEST_P(ReproCollectivesTest, BatchIsBitIdenticalToScalarMerges) {
  // The satellite property test: allreduce_batch(k) must equal k scalar
  // allreduce calls bit for bit, payloads spanning 1e±15 — with the repro
  // mode on AND off (the float tree reduces element-wise over the same
  // tree, so the property holds either way).
  const int np = GetParam();
  constexpr std::size_t kK = 9;
  for (const bool mode : {true, false}) {
    repro::ScopedEnable scope(mode);
    run_spmd(np, [&](Process& p) {
      std::array<double, kK> batch;
      for (std::size_t i = 0; i < kK; ++i) {
        batch[i] = contribution(p.rank(), 1000 + i);
      }
      std::array<double, kK> scalars = batch;
      p.allreduce_batch(std::span<double>(batch));
      for (std::size_t i = 0; i < kK; ++i) {
        scalars[i] = p.allreduce(scalars[i]);
      }
      for (std::size_t i = 0; i < kK; ++i) {
        EXPECT_EQ(bits_of(batch[i]), bits_of(scalars[i]))
            << "repro=" << mode << " rank " << p.rank() << " lane " << i;
      }
    });
  }
}

TEST_P(ReproCollectivesTest, NonSumReductionsAreUntouched) {
  // max/min/maxloc-style merges are order-invariant already; the repro
  // branch must leave them on the ordinary path and keep them correct.
  const int np = GetParam();
  repro::ScopedEnable on;
  run_spmd(np, [&](Process& p) {
    const double got = p.allreduce(
        static_cast<double>(p.rank()),
        [](double a, double b) { return a > b ? a : b; });
    EXPECT_EQ(got, static_cast<double>(np - 1));
    // Integer sums stay on the plain path too (already exact).
    EXPECT_EQ(p.allreduce(p.rank() + 1), np * (np + 1) / 2);
  });
}

TEST_P(ReproCollectivesTest, StatsCountTheModeAndOnlyTheMode) {
  const int np = GetParam();
  {
    repro::ScopedEnable on;
    auto rt = run_spmd(np, [](Process& p) {
      (void)p.allreduce(1.5);                      // 1 value
      std::vector<double> v(4, 0.25);
      p.allreduce_vec(v);                          // 4 values
      std::array<double, 3> b{1.0, 2.0, 3.0};
      p.allreduce_batch(std::span<double>(b));     // 3 values
    });
    const auto total = rt->total_stats();
    EXPECT_EQ(total.repro_reductions, static_cast<std::uint64_t>(3 * np));
    EXPECT_EQ(total.repro_values, static_cast<std::uint64_t>(8 * np));
  }
  {
    repro::ScopedEnable off(false);
    auto rt = run_spmd(np, [](Process& p) {
      (void)p.allreduce(1.5);
      std::vector<double> v(4, 0.25);
      p.allreduce_vec(v);
    });
    const auto total = rt->total_stats();
    EXPECT_EQ(total.repro_reductions, 0u);
    EXPECT_EQ(total.repro_values, 0u);
  }
}

TEST_P(ReproCollectivesTest, RuntimeSamplesTheFlagAtConstruction) {
  const int np = GetParam();
  repro::ScopedEnable on;
  auto rt = std::make_unique<hpfcg::msg::Runtime>(np);
  // Flipping the global mid-machine must not change this machine.
  repro::set_enabled(false);
  EXPECT_TRUE(rt->repro_active());
  rt->run([](Process& p) {
    EXPECT_TRUE(p.repro_active());
    (void)p.allreduce(1.0);
  });
  EXPECT_GE(rt->total_stats().repro_reductions, static_cast<std::uint64_t>(np));
}

TEST_P(ReproCollectivesTest, CollScratchAllocatesOncePerProcess) {
  // Satellite regression: allreduce_vec used to allocate a fresh n-element
  // vector at EVERY tree level of EVERY call; the scratch is now hoisted
  // into the Process, shared with the batch reductions, and must grow at
  // most once for a fixed payload size.
  const int np = GetParam();
  constexpr std::size_t kN = 513;
  constexpr int kCalls = 20;
  for (const bool mode : {false, true}) {
    repro::ScopedEnable scope(mode);
    std::vector<std::uint64_t> allocs(static_cast<std::size_t>(np), 0);
    run_spmd(np, [&](Process& p) {
      std::vector<double> buf(kN);
      for (int c = 0; c < kCalls; ++c) {
        for (std::size_t i = 0; i < kN; ++i) {
          buf[i] = contribution(p.rank(), i + static_cast<std::size_t>(c));
        }
        p.allreduce_vec(buf);
        // Smaller payloads must reuse the same buffer, never re-grow —
        // the batch and scalar reductions' tree levels included.
        std::vector<double> small(kN / 4, 1.0);
        p.allreduce_vec(small);
        p.allreduce_batch(std::span<double>(small).first(3));
        (void)p.allreduce(small[0]);
      }
      allocs[static_cast<std::size_t>(p.rank())] =
          p.coll_scratch_allocations();
    });
    for (int r = 0; r < np; ++r) {
      // Only ranks that RECEIVE in the reduce phase touch the scratch
      // (pure senders — e.g. every odd rank — never do), so the pinned
      // property is "at most one growth ever": the pre-fix code allocated
      // at every tree level of every call (~kCalls * log2(np) times).
      EXPECT_LE(allocs[static_cast<std::size_t>(r)], 1u)
          << "repro=" << mode << " rank " << r;
    }
    // Rank 0 is the tree root: with np > 1 it always receives, and must
    // have grown the scratch exactly once across all 80 collectives.
    EXPECT_EQ(allocs[0], np == 1 ? 0u : 1u) << "repro=" << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, ReproCollectivesTest,
                         ::testing::ValuesIn(test_machine_sizes()));

}  // namespace
