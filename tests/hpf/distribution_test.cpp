// Distribution invariants: every global index has exactly one owner, the
// owner/local/global mappings round-trip, counts are consistent, and each
// HPF kind matches its specification.  Equality is checked against an
// element walk on every small map, must not walk 2^40 elements, and must
// let DistCsr accept vectors on a distinct but equal map.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/util/error.hpp"
#include "spmd_test_util.hpp"

using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg_test::run_spmd;

namespace {

/// Exhaustive consistency sweep every distribution must satisfy.
void check_invariants(const Distribution& d) {
  const std::size_t n = d.size();
  const int np = d.nprocs();

  // counts sum to n.
  std::size_t total = 0;
  for (int r = 0; r < np; ++r) total += d.local_count(r);
  EXPECT_EQ(total, n);
  EXPECT_EQ(d.counts().size(), static_cast<std::size_t>(np));

  // owner/local_index/global_index round-trip for every element.
  for (std::size_t i = 0; i < n; ++i) {
    const int r = d.owner(i);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, np);
    const std::size_t li = d.local_index(i);
    ASSERT_LT(li, d.local_count(r));
    EXPECT_EQ(d.global_index(r, li), i);
  }

  // Every (rank, local) slot maps to a distinct global index owned by rank.
  std::vector<bool> seen(n, false);
  for (int r = 0; r < np; ++r) {
    std::size_t prev_global = 0;
    for (std::size_t li = 0; li < d.local_count(r); ++li) {
      const std::size_t g = d.global_index(r, li);
      ASSERT_LT(g, n);
      EXPECT_FALSE(seen[g]);
      seen[g] = true;
      EXPECT_EQ(d.owner(g), r);
      EXPECT_EQ(d.local_index(g), li);
      if (li > 0) {
        EXPECT_GT(g, prev_global);  // local order = global order
      }
      prev_global = g;
    }
  }

  if (d.contiguous()) {
    for (int r = 0; r < np; ++r) {
      const auto [lo, hi] = d.local_range(r);
      EXPECT_EQ(hi - lo, d.local_count(r));
      for (std::size_t i = lo; i < hi; ++i) EXPECT_EQ(d.owner(i), r);
    }
  }
}

class DistributionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(DistributionSweep, Block) {
  const auto [n, np] = GetParam();
  check_invariants(Distribution::block(n, np));
}

TEST_P(DistributionSweep, Cyclic) {
  const auto [n, np] = GetParam();
  check_invariants(Distribution::cyclic(n, np));
}

TEST_P(DistributionSweep, BlockK) {
  const auto [n, np] = GetParam();
  const std::size_t k =
      n == 0 ? 1 : (n + static_cast<std::size_t>(np) - 1) /
                       static_cast<std::size_t>(np);
  check_invariants(Distribution::block_size(n, np, k));
}

TEST_P(DistributionSweep, CyclicK) {
  const auto [n, np] = GetParam();
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    check_invariants(Distribution::cyclic_size(n, np, k));
  }
}

TEST_P(DistributionSweep, Cuts) {
  const auto [n, np] = GetParam();
  // Skewed cut points: rank r gets roughly r-proportional share.
  std::vector<std::size_t> cuts(static_cast<std::size_t>(np) + 1, 0);
  const std::size_t denom = static_cast<std::size_t>(np) *
                            (static_cast<std::size_t>(np) + 1) / 2;
  std::size_t acc = 0;
  for (int r = 0; r < np; ++r) {
    acc += n * static_cast<std::size_t>(r + 1) / denom;
    cuts[static_cast<std::size_t>(r) + 1] = std::min(acc, n);
  }
  cuts.back() = n;
  check_invariants(Distribution::from_cuts(n, cuts));
}

TEST_P(DistributionSweep, Indirect) {
  const auto [n, np] = GetParam();
  std::vector<int> owner(n);
  for (std::size_t i = 0; i < n; ++i) {
    owner[i] = static_cast<int>((i * 7 + 3) % static_cast<std::size_t>(np));
  }
  check_invariants(Distribution::indirect(np, owner));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DistributionSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 5, 16, 17, 100,
                                                      257),
                       ::testing::Values(1, 2, 3, 4, 7, 8)));

TEST(Distribution, BlockMatchesHpfDefinition) {
  // HPF BLOCK over n=10, np=4: blocks of ceil(10/4)=3 -> 3,3,3,1.
  const auto d = Distribution::block(10, 4);
  EXPECT_EQ(d.local_count(0), 3u);
  EXPECT_EQ(d.local_count(1), 3u);
  EXPECT_EQ(d.local_count(2), 3u);
  EXPECT_EQ(d.local_count(3), 1u);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(9), 3);
  EXPECT_EQ(d.name(), "BLOCK");
}

TEST(Distribution, BlockKPlacesLastElementOnLastProcessor) {
  // The paper's BLOCK((n+NP-1)/NP) idiom "to ensure that the (n+1)'th
  // element of row is placed in the last processor": n+1 pointer entries
  // over NP ranks.
  const std::size_t n = 12;  // 13 pointer entries
  const int np = 4;
  const std::size_t k = (n + 1 + np - 1) / np;  // ceil(13/4) = 4
  const auto d = Distribution::block_size(n + 1, np, k);
  EXPECT_EQ(d.owner(n), np - 1);  // last pointer entry on last rank
  EXPECT_EQ(d.name(), "BLOCK(4)");
}

TEST(Distribution, CyclicDealsRoundRobin) {
  const auto d = Distribution::cyclic(10, 3);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(1), 1);
  EXPECT_EQ(d.owner(2), 2);
  EXPECT_EQ(d.owner(3), 0);
  EXPECT_EQ(d.local_index(3), 1u);
  EXPECT_EQ(d.local_count(0), 4u);
  EXPECT_EQ(d.local_count(1), 3u);
  EXPECT_FALSE(d.contiguous());
}

TEST(Distribution, CyclicKDealsBlocks) {
  const auto d = Distribution::cyclic_size(10, 2, 3);
  // Blocks [0,3) r0, [3,6) r1, [6,9) r0, [9,10) r1.
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.owner(6), 0);
  EXPECT_EQ(d.owner(9), 1);
  EXPECT_EQ(d.local_count(0), 6u);
  EXPECT_EQ(d.local_count(1), 4u);
  EXPECT_EQ(d.local_index(7), 4u);  // second local block, offset 1
}

TEST(Distribution, CutsExposeCutArray) {
  const auto d = Distribution::from_cuts(10, {0, 2, 2, 10});
  EXPECT_EQ(d.nprocs(), 3);
  EXPECT_EQ(d.local_count(1), 0u);  // empty middle rank
  EXPECT_EQ(d.owner(2), 2);
  EXPECT_EQ(d.cuts().size(), 4u);
}

TEST(Distribution, EqualityComparesMappings) {
  const auto a = Distribution::block(12, 4);
  const auto b = Distribution::block_size(12, 4, 3);  // same mapping
  const auto c = Distribution::cyclic(12, 4);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  // from_cuts with block boundaries equals block too.
  const auto d = Distribution::from_cuts(12, {0, 3, 6, 9, 12});
  EXPECT_TRUE(a == d);
}

// ---- equality -------------------------------------------------------------

/// The definition operator== must keep, as an element walk: equal iff every
/// index has the same owner and local index.  Test oracle only.
bool walk_equal(const Distribution& a, const Distribution& b) {
  if (a.size() != b.size() || a.nprocs() != b.nprocs()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.owner(i) != b.owner(i) || a.local_index(i) != b.local_index(i)) {
      return false;
    }
  }
  return true;
}

std::string describe(const Distribution& d) {
  std::string s = d.name() + " n=" + std::to_string(d.size()) +
                  " np=" + std::to_string(d.nprocs()) + " owners";
  for (std::size_t i = 0; i < d.size(); ++i) {
    s += ' ' + std::to_string(d.owner(i));
  }
  return s;
}

/// Every cut set of [0, n) over np ranks, appended as from_cuts maps.
void add_cut_sets(std::size_t n, std::vector<std::size_t>& cuts,
                  std::size_t r, std::vector<Distribution>& out) {
  if (r + 1 == cuts.size()) {
    out.push_back(Distribution::from_cuts(n, cuts));
    return;
  }
  for (std::size_t c = cuts[r - 1]; c <= n; ++c) {
    cuts[r] = c;
    add_cut_sets(n, cuts, r + 1, out);
  }
}

/// Every BLOCK, BLOCK(k), CYCLIC, CYCLIC(k <= n+2) and cut-set map of n
/// elements over np ranks, plus every INDIRECT owner map when asked.
std::vector<Distribution> small_maps(std::size_t n, int np,
                                     bool with_indirect) {
  const auto unp = static_cast<std::size_t>(np);
  std::vector<Distribution> maps;
  maps.push_back(Distribution::block(n, np));
  const std::size_t min_k = n == 0 ? 1 : (n + unp - 1) / unp;
  for (std::size_t k = min_k; k <= n + 2; ++k) {
    maps.push_back(Distribution::block_size(n, np, k));
  }
  maps.push_back(Distribution::cyclic(n, np));
  for (std::size_t k = 1; k <= n + 2; ++k) {
    maps.push_back(Distribution::cyclic_size(n, np, k));
  }
  std::vector<std::size_t> cuts(unp + 1, 0);
  cuts.back() = n;
  add_cut_sets(n, cuts, 1, maps);
  if (with_indirect) {
    std::vector<int> owner(n, 0);
    for (;;) {
      maps.push_back(Distribution::indirect(np, owner));
      std::size_t i = 0;
      while (i < n && ++owner[i] == np) owner[i++] = 0;
      if (i == n) break;
    }
  }
  return maps;
}

TEST(DistributionEquality, MatchesElementWalkOnEverySmallMap) {
  // Distinct objects on both sides, so the identity shortcut never
  // answers; the self-comparison is checked separately.
  std::size_t pairs = 0;
  std::size_t mismatches = 0;
  for (int np = 1; np <= 4; ++np) {
    for (std::size_t n = 0; n <= 9; ++n) {
      const bool indirect = n <= 5 && np <= 3;
      const auto maps = small_maps(n, np, indirect);
      const auto twins = small_maps(n, np, indirect);
      for (const Distribution& a : maps) {
        EXPECT_TRUE(a == a) << describe(a);
        for (const Distribution& b : twins) {
          ++pairs;
          if ((a == b) == walk_equal(a, b)) continue;
          if (++mismatches <= 10) {
            ADD_FAILURE() << describe(a) << " vs " << describe(b)
                          << ": operator== says " << (a == b);
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(pairs, 249328u);
}

TEST(DistributionEquality, EmptyArrayMapsAreEqualOnOneMachineSize) {
  const auto block = Distribution::block(0, 3);
  EXPECT_TRUE(block == Distribution::cyclic(0, 3));
  EXPECT_TRUE(block == Distribution::cyclic_size(0, 3, 4));
  EXPECT_TRUE(block == Distribution::from_cuts(0, {0, 0, 0, 0}));
  EXPECT_TRUE(block == Distribution::indirect(3, {}));
  EXPECT_FALSE(block == Distribution::block(0, 2));
}

TEST(DistributionEquality, FewerElementsThanRanksLeavesEmptyRanks) {
  // n = 2 over 4 ranks: BLOCK and CYCLIC both put index r on rank r and
  // leave ranks 2 and 3 empty; a cut set emptying rank 0 instead differs.
  const auto block = Distribution::block(2, 4);
  EXPECT_TRUE(block == Distribution::cyclic(2, 4));
  EXPECT_TRUE(block == Distribution::from_cuts(2, {0, 1, 2, 2, 2}));
  EXPECT_FALSE(block == Distribution::from_cuts(2, {0, 0, 1, 2, 2}));
  EXPECT_FALSE(block == Distribution::from_cuts(2, {0, 2, 2, 2, 2}));
}

TEST(DistributionEquality, CyclicBlockCoveringTheArrayIsOneBlock) {
  // CYCLIC(k >= n) puts everything on rank 0, like BLOCK(n) does.
  const auto all_on_zero = Distribution::cyclic_size(5, 3, 7);
  EXPECT_TRUE(all_on_zero == Distribution::block_size(5, 3, 5));
  EXPECT_TRUE(all_on_zero == Distribution::from_cuts(5, {0, 5, 5, 5}));
  EXPECT_TRUE(all_on_zero == Distribution::cyclic_size(5, 3, 5));
  EXPECT_FALSE(all_on_zero == Distribution::block(5, 3));
}

TEST(DistributionEquality, CyclicWithAtMostOneElementPerRankIsBlock) {
  EXPECT_TRUE(Distribution::cyclic(3, 4) == Distribution::block(3, 4));
  EXPECT_TRUE(Distribution::cyclic(4, 4) == Distribution::block(4, 4));
  // One element more and rank 0 owns indices 0 and 4, which no
  // contiguous map with the same counts does.
  EXPECT_FALSE(Distribution::cyclic(5, 4) ==
               Distribution::from_cuts(5, {0, 2, 3, 4, 5}));
  // Equal counts, different maps.
  EXPECT_FALSE(Distribution::cyclic(4, 2) == Distribution::block(4, 2));
}

TEST(DistributionEquality, IndirectEqualToBlock) {
  const auto block = Distribution::block(9, 3);
  EXPECT_TRUE(Distribution::indirect(3, {0, 0, 0, 1, 1, 1, 2, 2, 2}) ==
              block);
  EXPECT_TRUE(block ==
              Distribution::indirect(3, {0, 0, 0, 1, 1, 1, 2, 2, 2}));
  // Same counts, one pair of owners swapped.
  EXPECT_FALSE(Distribution::indirect(3, {0, 0, 1, 0, 1, 1, 2, 2, 2}) ==
               block);
  // An INDIRECT map can also equal a truly cyclic one.
  EXPECT_TRUE(Distribution::indirect(3, {0, 1, 2, 0, 1, 2, 0, 1, 2}) ==
              Distribution::cyclic(9, 3));
  EXPECT_FALSE(Distribution::indirect(3, {0, 1, 2, 0, 1, 2, 0, 2, 1}) ==
               Distribution::cyclic(9, 3));
}

TEST(DistributionEquality, TwoToTheFortyElementsCompareWithoutAWalk) {
  // An O(n) comparison would run for hours here; ctest's timeout is the
  // regression check, no wall-clock threshold needed.
  const std::size_t n = std::size_t{1} << 40;
  const std::size_t q = n / 4;
  const auto block = Distribution::block(n, 4);
  const auto twin = Distribution::from_cuts(n, {0, q, 2 * q, 3 * q, n});
  const auto cyclic = Distribution::cyclic(n, 4);
  EXPECT_TRUE(block == twin);
  EXPECT_TRUE(twin == block);
  EXPECT_FALSE(block == cyclic);  // equal counts, different maps
  EXPECT_FALSE(cyclic == twin);
  EXPECT_TRUE(Distribution::cyclic_size(n, 4, q) == block);
  EXPECT_TRUE(Distribution::cyclic_size(n, 4, 1) == cyclic);
  EXPECT_FALSE(Distribution::cyclic_size(n, 4, 2) == cyclic);
}

TEST(DistributionEquality, DistCsrAcceptsEqualMapsAndRejectsCyclic) {
  const auto a = hpfcg::sparse::laplacian_2d(6, 5);
  const std::size_t n = a.n_rows();
  const auto val = [](std::size_t g) {
    return 0.5 * static_cast<double>(g % 7) - 1.0;
  };
  const auto expect_misaligned = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "a CYCLIC vector must be rejected";
    } catch (const hpfcg::util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("must be aligned with the rows"),
                std::string::npos)
          << e.what();
    }
  };
  for (const int np : {2, 4}) {
    run_spmd(np, [&](Process& proc) {
      auto rows = std::make_shared<const Distribution>(
          Distribution::block(n, proc.nprocs()));
      auto mat = hpfcg::sparse::DistCsr<double>::row_aligned(proc, a, rows);
      std::vector<std::size_t> cuts;
      for (int r = 0; r < proc.nprocs(); ++r) {
        cuts.push_back(rows->local_range(r).first);
      }
      cuts.push_back(n);
      auto twin = std::make_shared<const Distribution>(
          Distribution::from_cuts(n, cuts));
      ASSERT_NE(rows.get(), twin.get());

      // matvec and both half sweeps run on the twin's vectors and give
      // the same bits as on the matrix's own map.
      DistributedVector<double> p(proc, rows), q(proc, rows);
      DistributedVector<double> pt(proc, twin), qt(proc, twin);
      p.set_from(val);
      pt.set_from(val);
      mat.matvec(p, q);
      mat.matvec(pt, qt);
      for (const bool forward : {true, false}) {
        mat.gs_half_sweep(p, q, forward, /*exact=*/false);
        mat.gs_half_sweep(pt, qt, forward, /*exact=*/false);
      }
      EXPECT_TRUE(std::equal(q.local().begin(), q.local().end(),
                             qt.local().begin(), qt.local().end()));

      auto cyc = std::make_shared<const Distribution>(
          Distribution::cyclic(n, proc.nprocs()));
      DistributedVector<double> pc(proc, cyc), qc(proc, cyc);
      expect_misaligned([&] { mat.matvec(pc, qc); });
      expect_misaligned([&] { mat.matvec(p, qc); });
      expect_misaligned([&] { mat.gs_half_sweep(pc, q, true, false); });
      expect_misaligned([&] { mat.gs_half_sweep(p, qc, false, false); });
    });
  }
}

TEST(Distribution, HugeBlockSizeDoesNotOverflow) {
  // Regression: the coverage check was written `k * np >= n`, which wraps
  // for huge k — BLOCK(2^61) over 8 ranks computed 2^64 ≡ 0 < 12 and was
  // falsely rejected even though rank 0 trivially holds all 12 elements.
  const std::size_t huge = std::size_t{1} << 61;
  Distribution d = Distribution::block_size(12, 8, huge);
  EXPECT_EQ(d.local_count(0), 12u);
  std::size_t total = 0;
  for (int r = 0; r < 8; ++r) total += d.local_count(r);
  EXPECT_EQ(total, 12u);  // counts built with r*k wrapped to garbage before
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(d.owner(i), 0);
  EXPECT_EQ(d.local_range(0).second, 12u);
}

TEST(Distribution, HugeCyclicBlockRejectedNotWrapped) {
  // Regression: CYCLIC(k) computed the cycle length k*np without an
  // overflow guard; with k near SIZE_MAX/np the wrapped cycle credited
  // phantom rounds, so local_count disagreed with owner().  Now an
  // overflow in the cycle length is a typed error naming k and NP.
  const std::size_t k = std::numeric_limits<std::size_t>::max() / 4 + 2;
  try {
    (void)Distribution::cyclic_size(10, 4, k);
    FAIL() << "CYCLIC(k) with k*NP overflow must be rejected";
  } catch (const hpfcg::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("NP=4"), std::string::npos);
  }
  // Large-but-safe k is still fine (one giant block on rank 0).
  check_invariants(
      Distribution::cyclic_size(10, 4, std::size_t{1} << 60));
}

TEST(Distribution, ZeroBlockFactorsNamedInError) {
  try {
    (void)Distribution::block_size(10, 2, 0);
    FAIL() << "BLOCK(0) must be rejected";
  } catch (const hpfcg::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("k=0"), std::string::npos);
  }
  try {
    (void)Distribution::cyclic_size(10, 2, 0);
    FAIL() << "CYCLIC(0) must be rejected";
  } catch (const hpfcg::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("k=0"), std::string::npos);
  }
}

TEST(Distribution, Validation) {
  EXPECT_THROW(Distribution::block(10, 0), hpfcg::util::Error);
  EXPECT_THROW(Distribution::block_size(10, 2, 4),
               hpfcg::util::Error);  // 2*4 < 10
  EXPECT_THROW(Distribution::from_cuts(10, {0, 5}), hpfcg::util::Error);
  EXPECT_THROW(Distribution::from_cuts(10, {0, 7, 5, 10}),
               hpfcg::util::Error);
  EXPECT_THROW(Distribution::indirect(2, {0, 1, 2}), hpfcg::util::Error);
  const auto d = Distribution::block(10, 2);
  EXPECT_THROW((void)d.owner(10), hpfcg::util::Error);
  EXPECT_THROW((void)d.local_count(2), hpfcg::util::Error);
  EXPECT_THROW((void)Distribution::cyclic(10, 2).local_range(0),
               hpfcg::util::Error);
}

}  // namespace
