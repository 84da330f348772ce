// DistributedVector: construction, alignment, global/local access, and the
// gather path (to_global) across distribution kinds and machine sizes.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "spmd_test_util.hpp"

using hpfcg::hpf::DistPtr;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg_test::run_spmd;

namespace {

DistPtr share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

enum class Kind { kBlock, kCyclic, kCyclicK, kCuts };

DistPtr make_dist(Kind kind, std::size_t n, int np) {
  switch (kind) {
    case Kind::kBlock:
      return share(Distribution::block(n, np));
    case Kind::kCyclic:
      return share(Distribution::cyclic(n, np));
    case Kind::kCyclicK:
      return share(Distribution::cyclic_size(n, np, 3));
    case Kind::kCuts: {
      std::vector<std::size_t> cuts(static_cast<std::size_t>(np) + 1, n);
      cuts[0] = 0;
      // Front-loaded cuts: rank 0 gets half, the rest split the remainder.
      std::size_t acc = n / 2;
      for (int r = 1; r < np; ++r) {
        cuts[static_cast<std::size_t>(r)] = std::min(n, acc);
        acc += (n - n / 2) / static_cast<std::size_t>(np);
      }
      return share(Distribution::from_cuts(n, cuts));
    }
  }
  return nullptr;
}

class DistVectorTest
    : public ::testing::TestWithParam<std::tuple<Kind, int>> {};

TEST_P(DistVectorTest, SetFromAndToGlobalRoundTrip) {
  const auto [kind, np] = GetParam();
  const std::size_t n = 101;
  run_spmd(np, [&, kind = kind, np = np](Process& p) {
    DistributedVector<double> v(p, make_dist(kind, n, np));
    v.set_from([](std::size_t g) { return 3.0 * g + 1.0; });
    const auto full = v.to_global();
    ASSERT_EQ(full.size(), n);
    for (std::size_t g = 0; g < n; ++g) {
      EXPECT_DOUBLE_EQ(full[g], 3.0 * g + 1.0);
    }
  });
}

TEST_P(DistVectorTest, FromGlobalSelectsOwnedSlice) {
  const auto [kind, np] = GetParam();
  const std::size_t n = 64;
  run_spmd(np, [&, kind = kind, np = np](Process& p) {
    std::vector<double> full(n);
    for (std::size_t g = 0; g < n; ++g) full[g] = static_cast<double>(g * g);
    DistributedVector<double> v(p, make_dist(kind, n, np));
    v.from_global(full);
    for (std::size_t l = 0; l < v.local().size(); ++l) {
      const std::size_t g = v.global_of(l);
      EXPECT_DOUBLE_EQ(v.local()[l], static_cast<double>(g * g));
    }
  });
}

TEST_P(DistVectorTest, OwnershipQueries) {
  const auto [kind, np] = GetParam();
  const std::size_t n = 50;
  run_spmd(np, [&, kind = kind, np = np](Process& p) {
    DistributedVector<double> v(p, make_dist(kind, n, np));
    v.set_from([](std::size_t g) { return static_cast<double>(g); });
    std::size_t owned = 0;
    for (std::size_t g = 0; g < n; ++g) {
      if (v.owns(g)) {
        ++owned;
        EXPECT_DOUBLE_EQ(v.at_global(g), static_cast<double>(g));
      }
    }
    EXPECT_EQ(owned, v.local().size());
  });
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, DistVectorTest,
    ::testing::Combine(::testing::Values(Kind::kBlock, Kind::kCyclic,
                                         Kind::kCyclicK, Kind::kCuts),
                       ::testing::Values(1, 2, 3, 4, 8)));

TEST(DistVector, AlignedLikeSharesDistribution) {
  run_spmd(4, [](Process& p) {
    DistributedVector<double> a(p, share(Distribution::block(40, 4)));
    auto b = DistributedVector<double>::aligned_like(a);
    EXPECT_TRUE(hpfcg::hpf::is_aligned(a, b));
    EXPECT_EQ(a.local().size(), b.local().size());
  });
}

TEST(DistVector, AlignmentByValueEquality) {
  run_spmd(4, [](Process& p) {
    DistributedVector<double> a(p, share(Distribution::block(40, 4)));
    DistributedVector<double> b(p, share(Distribution::block_size(40, 4, 10)));
    DistributedVector<double> c(p, share(Distribution::cyclic(40, 4)));
    EXPECT_TRUE(hpfcg::hpf::is_aligned(a, b));   // same mapping
    EXPECT_FALSE(hpfcg::hpf::is_aligned(a, c));  // different mapping
  });
}

TEST(DistVector, AtGlobalRejectsUnownedElement) {
  run_spmd(2, [](Process& p) {
    DistributedVector<double> v(p, share(Distribution::block(10, 2)));
    const std::size_t foreign = p.rank() == 0 ? 9 : 0;
    EXPECT_THROW((void)v.at_global(foreign), hpfcg::util::Error);
  });
}

TEST(DistVector, MachineSizeMismatchRejected) {
  run_spmd(2, [](Process& p) {
    EXPECT_THROW(DistributedVector<double>(
                     p, share(Distribution::block(10, 3))),
                 hpfcg::util::Error);
  });
}

}  // namespace
