// Collective operations must agree with their serial definitions for every
// machine size, including non-powers of two, and for empty payloads.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

#include "hpfcg/msg/process.hpp"
#include "spmd_test_util.hpp"

using hpfcg::msg::Process;
using hpfcg_test::run_spmd;
using hpfcg_test::test_machine_sizes;

namespace {

class CollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesTest, BroadcastFromEveryRoot) {
  const int np = GetParam();
  for (int root = 0; root < np; ++root) {
    run_spmd(np, [root](Process& p) {
      std::vector<std::int64_t> buf(4, -1);
      if (p.rank() == root) {
        buf = {1, 2, 3, 100 + root};
      }
      p.broadcast_into<std::int64_t>(root, buf);
      EXPECT_EQ(buf[3], 100 + root);
      EXPECT_EQ(buf[0], 1);
    });
  }
}

TEST_P(CollectivesTest, BroadcastEmptyPayload) {
  const int np = GetParam();
  run_spmd(np, [](Process& p) {
    std::vector<double> buf;
    p.broadcast_into<double>(0, buf);
    EXPECT_TRUE(buf.empty());
  });
}

TEST_P(CollectivesTest, AllreduceMax) {
  const int np = GetParam();
  run_spmd(np, [np](Process& p) {
    const int v = p.allreduce<int>(p.rank(),
                                   [](int a, int b) { return a > b ? a : b; });
    EXPECT_EQ(v, np - 1);
  });
}

TEST_P(CollectivesTest, AllreduceSum) {
  const int np = GetParam();
  run_spmd(np, [np](Process& p) {
    const double v = p.allreduce(static_cast<double>(p.rank() + 1));
    EXPECT_DOUBLE_EQ(v, np * (np + 1) / 2.0);
  });
}

TEST_P(CollectivesTest, AllreduceVecElementwise) {
  const int np = GetParam();
  run_spmd(np, [np](Process& p) {
    std::vector<std::int64_t> v = {p.rank(), 2 * p.rank(), 7};
    p.allreduce_vec(v);
    const std::int64_t ranks = static_cast<std::int64_t>(np) * (np - 1) / 2;
    EXPECT_EQ(v[0], ranks);
    EXPECT_EQ(v[1], 2 * ranks);
    EXPECT_EQ(v[2], 7 * np);
  });
}

TEST_P(CollectivesTest, AllgathervVariableBlocks) {
  const int np = GetParam();
  run_spmd(np, [np](Process& p) {
    // Rank r contributes r+1 elements, each 10*r + index.
    std::vector<std::size_t> counts(np);
    for (int r = 0; r < np; ++r) counts[r] = static_cast<std::size_t>(r) + 1;
    std::vector<int> local(counts[p.rank()]);
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = 10 * p.rank() + static_cast<int>(i);
    }
    std::vector<int> out;
    p.allgatherv<int>(local, out, counts);
    std::size_t pos = 0;
    for (int r = 0; r < np; ++r) {
      for (std::size_t i = 0; i < counts[r]; ++i) {
        EXPECT_EQ(out[pos++], 10 * r + static_cast<int>(i));
      }
    }
    EXPECT_EQ(pos, out.size());
  });
}

TEST_P(CollectivesTest, AllgathervWithEmptyBlocks) {
  const int np = GetParam();
  run_spmd(np, [np](Process& p) {
    // Only even ranks contribute.
    std::vector<std::size_t> counts(np);
    for (int r = 0; r < np; ++r) counts[r] = (r % 2 == 0) ? 2 : 0;
    std::vector<int> local(counts[p.rank()], p.rank());
    std::vector<int> out;
    p.allgatherv<int>(local, out, counts);
    std::size_t expected_size = 0;
    for (const auto c : counts) expected_size += c;
    ASSERT_EQ(out.size(), expected_size);
  });
}

TEST_P(CollectivesTest, AlltoallvPersonalized) {
  const int np = GetParam();
  run_spmd(np, [np](Process& p) {
    // Rank r sends to rank d a block of d+1 ints valued r*np+d.
    std::vector<std::vector<int>> out(np);
    for (int d = 0; d < np; ++d) {
      out[d].assign(static_cast<std::size_t>(d) + 1, p.rank() * np + d);
    }
    const auto in = p.alltoallv<int>(out);
    ASSERT_EQ(static_cast<int>(in.size()), np);
    for (int s = 0; s < np; ++s) {
      ASSERT_EQ(in[s].size(), static_cast<std::size_t>(p.rank()) + 1);
      for (const int v : in[s]) EXPECT_EQ(v, s * np + p.rank());
    }
  });
}

TEST_P(CollectivesTest, SequentialRunsInRankOrder) {
  const int np = GetParam();
  std::vector<int> order;
  std::mutex mu;
  run_spmd(np, [&](Process& p) {
    p.sequential([&] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(p.rank());
    });
  });
  ASSERT_EQ(static_cast<int>(order.size()), np);
  for (int r = 0; r < np; ++r) EXPECT_EQ(order[r], r);
}

TEST_P(CollectivesTest, SequentialModelsSerializationAsWait) {
  const int np = GetParam();
  auto rt = run_spmd(np, [](Process& p) {
    p.sequential([&] { p.add_flops(1000000); });
  });
  // The last rank's modeled clock must include every predecessor's compute.
  const double t_flop = rt->cost().params().t_flop;
  const double expect_min = np * 1000000 * t_flop;
  EXPECT_GE(rt->stats(np - 1).modeled_seconds(), expect_min * 0.999);
}

TEST_P(CollectivesTest, BarrierCountsInStats) {
  const int np = GetParam();
  auto rt = run_spmd(np, [](Process& p) {
    p.barrier();
    p.barrier();
  });
  for (int r = 0; r < np; ++r) EXPECT_EQ(rt->stats(r).barriers, 2u);
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, CollectivesTest,
                         ::testing::ValuesIn(test_machine_sizes()));

}  // namespace
