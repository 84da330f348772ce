// sparse::ExchangePlan over owner maps that are not contiguous: a
// CYCLIC(3) map and an INDIRECT map that is not rank-ordered, with wanted
// lists that repeat entries, run unsorted within an owner and reach every
// rank.  Gather must equal direct indexing and scatter-add the serial sum
// in ascending source rank, bit for bit; the inspector must be one
// request list per peer and nothing more.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/sparse/exchange_plan.hpp"
#include "hpfcg/util/error.hpp"
#include "spmd_test_util.hpp"

using hpfcg::hpf::Distribution;
using hpfcg::msg::Process;
using hpfcg::sparse::ExchangePlan;
using hpfcg_test::run_spmd;
using hpfcg_test::test_machine_sizes;

namespace {

constexpr int kTag = 0x7100;

/// Rank `me`'s wanted list: one run per owner in ascending rank, holding
/// the owner's elements in descending order with every third one (shifted
/// by `me`) left out, then the owner's first element again.
std::vector<std::size_t> wanted_of(const Distribution& d, int me) {
  std::vector<std::size_t> w;
  for (int r = 0; r < d.nprocs(); ++r) {
    for (std::size_t li = d.local_count(r); li-- > 0;) {
      if ((li + static_cast<std::size_t>(me)) % 3 != 0) {
        w.push_back(d.global_index(r, li));
      }
    }
    w.push_back(d.global_index(r, 0));
  }
  return w;
}

double source_value(std::size_t g) {
  return 1.0 + 0.25 * static_cast<double>(g);
}

/// Partial of rank `me` at wanted position i: magnitudes spread over 2^±30
/// and both signs, so a different summation order changes the rounding.
double partial_value(int me, std::size_t i) {
  std::uint64_t h = (static_cast<std::uint64_t>(me) * 1000003u + i + 1) *
                    0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  const double mant = 1.0 + static_cast<double>(h % 1000) / 1000.0;
  const int expo = static_cast<int>((h >> 12) % 61) - 30;
  return ((h >> 40) & 1U ? -1.0 : 1.0) * std::ldexp(mant, expo);
}

/// Build a plan over `d` on every rank, then check gather against direct
/// indexing and scatter-add against the serial ascending-source-rank sum.
void check_plan_over(int np, const Distribution& d) {
  const std::size_t n = d.size();
  std::vector<double> expect(n);
  for (std::size_t g = 0; g < n; ++g) {
    expect[g] = 0.5 * static_cast<double>(g);
  }
  for (int s = 0; s < np; ++s) {
    const auto w = wanted_of(d, s);
    for (std::size_t i = 0; i < w.size(); ++i) {
      expect[w[i]] += partial_value(s, i);
    }
  }

  run_spmd(np, [&](Process& proc) {
    const int me = proc.rank();
    const auto wanted = wanted_of(d, me);
    ExchangePlan plan;
    plan.build(proc, wanted, d);

    std::vector<double> owned(d.local_count(me));
    for (std::size_t li = 0; li < owned.size(); ++li) {
      owned[li] = source_value(d.global_index(me, li));
    }
    std::vector<double> got(wanted.size(), -1.0);
    std::vector<double> pack;
    plan.gather<double>(proc, kTag, owned, got, pack);
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      EXPECT_EQ(got[i], source_value(wanted[i]))
          << "rank " << me << " i=" << i;
    }

    std::vector<double> partials(wanted.size());
    for (std::size_t i = 0; i < partials.size(); ++i) {
      partials[i] = partial_value(me, i);
    }
    for (std::size_t li = 0; li < owned.size(); ++li) {
      owned[li] = 0.5 * static_cast<double>(d.global_index(me, li));
    }
    plan.scatter_add<double>(proc, kTag + 1, partials, owned, pack);
    for (std::size_t li = 0; li < owned.size(); ++li) {
      const std::size_t g = d.global_index(me, li);
      EXPECT_EQ(owned[li], expect[g]) << "rank " << me << " g=" << g;
    }
  });
}

class ExchangePlanTest : public ::testing::TestWithParam<int> {};

TEST_P(ExchangePlanTest, CyclicOwnersGatherAndScatterAddBitExact) {
  const int np = GetParam();
  const std::size_t n = 7 * static_cast<std::size_t>(np) + 5;
  check_plan_over(np, Distribution::cyclic_size(n, np, 3));
}

TEST_P(ExchangePlanTest, IndirectOwnersGatherAndScatterAddBitExact) {
  const int np = GetParam();
  const std::size_t n = 6 * static_cast<std::size_t>(np) + 1;
  std::vector<int> owner(n);
  for (std::size_t g = 0; g < n; ++g) {
    owner[g] = static_cast<int>((g * 5 + 3) % static_cast<std::size_t>(np));
  }
  check_plan_over(np, Distribution::indirect(np, std::move(owner)));
}

TEST_P(ExchangePlanTest, OwnersGoingBackDownThrowOnEveryRank) {
  const int np = GetParam();
  if (np == 1) GTEST_SKIP() << "one owner cannot go back down";
  const auto d =
      Distribution::cyclic_size(4 * static_cast<std::size_t>(np), np, 2);
  std::atomic<int> throws{0};
  run_spmd(np, [&](Process& proc) {
    // Rank 1's element, then rank 0's: the owners descend.
    const std::vector<std::size_t> wanted{d.global_index(1, 0),
                                          d.global_index(0, 0)};
    ExchangePlan plan;
    try {
      plan.build(proc, wanted, d);
    } catch (const hpfcg::util::Error&) {
      ++throws;
    }
  });
  EXPECT_EQ(throws.load(), np);
}

TEST_P(ExchangePlanTest, BuildSendsOneRequestListPerPeerAndNoHeader) {
  // Each rank asks only the next rank (and itself), so all but one of its
  // request lists are empty: they still travel, one message per other
  // rank, and the bytes are the requested indices alone.
  const int np = GetParam();
  const auto d =
      Distribution::cyclic_size(9 * static_cast<std::size_t>(np), np, 3);
  run_spmd(np, [&](Process& proc) {
    const int me = proc.rank();
    const int next = (me + 1) % np;
    std::vector<std::size_t> wanted;
    std::size_t foreign = 0;
    for (int r = 0; r < np; ++r) {
      if (r != me && r != next) continue;
      for (std::size_t li = 0; li < d.local_count(r); li += 2) {
        wanted.push_back(d.global_index(r, li));
        if (r != me) ++foreign;
      }
    }
    const auto before = proc.stats();
    ExchangePlan plan;
    plan.build(proc, wanted, d);
    const auto& after = proc.stats();
    EXPECT_EQ(after.messages_sent - before.messages_sent,
              static_cast<std::uint64_t>(np - 1));
    EXPECT_EQ(after.bytes_sent - before.bytes_sent,
              foreign * sizeof(std::size_t));
  });
}

TEST(ExchangePlan, OwnerMapForAnotherMachineSizeThrowsOnEveryRank) {
  const auto d = Distribution::block(12, 3);
  std::atomic<int> throws{0};
  run_spmd(2, [&](Process& proc) {
    const std::vector<std::size_t> wanted{0, 11};
    ExchangePlan plan;
    try {
      plan.build(proc, wanted, d);
    } catch (const hpfcg::util::Error&) {
      ++throws;
    }
  });
  EXPECT_EQ(throws.load(), 2);
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, ExchangePlanTest,
                         ::testing::ValuesIn(test_machine_sizes()));

}  // namespace
