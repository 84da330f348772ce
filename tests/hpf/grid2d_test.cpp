// 2-D grid decomposition (beyond-stripes ablation): subgroup collectives,
// the (BLOCK, BLOCK) dense matvec, and the communication-volume advantage
// over 1-D stripes.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "hpfcg/hpf/grid2d.hpp"
#include "hpfcg/hpf/matvec_dense.hpp"
#include "spmd_test_util.hpp"

using hpfcg::hpf::DenseGrid2DMatrix;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::hpf::Grid2D;
using hpfcg::msg::Process;
using hpfcg_test::run_spmd;

namespace {

TEST(Grid2D, SquarestFactorization) {
  EXPECT_EQ(Grid2D::squarest(16).pr(), 4);
  EXPECT_EQ(Grid2D::squarest(16).pc(), 4);
  EXPECT_EQ(Grid2D::squarest(8).pc(), 2);
  EXPECT_EQ(Grid2D::squarest(8).pr(), 4);
  EXPECT_EQ(Grid2D::squarest(7).pc(), 1);  // prime => 7x1
  EXPECT_EQ(Grid2D::squarest(1).np(), 1);
}

TEST(Grid2D, CoordinatesRoundTrip) {
  const Grid2D g(3, 4);
  for (int r = 0; r < g.np(); ++r) {
    EXPECT_EQ(g.rank_of(g.row_of(r), g.col_of(r)), r);
  }
  EXPECT_EQ(g.row_group(1), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(g.col_group(2), (std::vector<int>{2, 6, 10}));
}

TEST(Grid2D, GroupAllgatherv) {
  run_spmd(6, [](Process& proc) {
    const Grid2D g(2, 3);
    const int gc = g.col_of(proc.rank());
    const auto members = g.col_group(gc);  // 2 members per column
    const std::vector<std::size_t> counts{2, 3};
    int me_pos = g.row_of(proc.rank());
    std::vector<int> local(counts[static_cast<std::size_t>(me_pos)]);
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = proc.rank() * 100 + static_cast<int>(i);
    }
    std::vector<int> out;
    hpfcg::hpf::group_allgatherv<int>(proc, members, local, out, counts,
                                      0x7000);
    ASSERT_EQ(out.size(), 5u);
    // First member's 2 elements then second member's 3.
    EXPECT_EQ(out[0], members[0] * 100 + 0);
    EXPECT_EQ(out[1], members[0] * 100 + 1);
    EXPECT_EQ(out[2], members[1] * 100 + 0);
    EXPECT_EQ(out[4], members[1] * 100 + 2);
  });
}

TEST(Grid2D, GroupReduceScatter) {
  run_spmd(6, [](Process& proc) {
    const Grid2D g(2, 3);
    const int gr = g.row_of(proc.rank());
    const auto members = g.row_group(gr);  // 3 members per row
    const std::vector<std::size_t> counts{1, 2, 3};
    // Every member contributes buf[i] = i + rank offset; the reduced chunk
    // must be the sum over the group's members.
    std::vector<double> buf(6);
    for (std::size_t i = 0; i < 6; ++i) {
      buf[i] = static_cast<double>(i) + 10.0 * proc.rank();
    }
    const int me_pos = g.col_of(proc.rank());
    std::vector<double> mine(counts[static_cast<std::size_t>(me_pos)]);
    hpfcg::hpf::group_reduce_scatter<double>(proc, members, buf, mine, counts,
                                             0x7100);
    double rank_sum = 0.0;
    for (const int m : members) rank_sum += 10.0 * m;
    std::size_t off = 0;
    for (int i = 0; i < me_pos; ++i) off += counts[static_cast<std::size_t>(i)];
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_DOUBLE_EQ(mine[i],
                       3.0 * static_cast<double>(off + i) + rank_sum);
    }
  });
}

double entry(std::size_t i, std::size_t j) {
  return 0.25 + static_cast<double>((i * 7 + j * 3) % 9);
}

double pval(std::size_t g) { return static_cast<double>(g % 5) - 2.0; }

class Grid2DMatvecTest : public ::testing::TestWithParam<int> {};

TEST_P(Grid2DMatvecTest, MatchesSerialForAllMachineShapes) {
  const int np = GetParam();
  const std::size_t n = 57;  // awkward size: uneven tiles everywhere
  std::vector<double> q_ref(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) q_ref[i] += entry(i, j) * pval(j);
  }

  run_spmd(np, [&](Process& proc) {
    const auto grid = Grid2D::squarest(np);
    DenseGrid2DMatrix<double> a(proc, grid, n);
    a.set_from(entry);
    DistributedVector<double> p(proc, a.vector_dist());
    DistributedVector<double> q(proc, a.result_dist());
    p.set_from(pval);
    a.matvec(p, q);
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-9);
  });
}

TEST_P(Grid2DMatvecTest, ResultRedistributesBackToVectorDist) {
  const int np = GetParam();
  const std::size_t n = 36;
  run_spmd(np, [&](Process& proc) {
    const auto grid = Grid2D::squarest(np);
    DenseGrid2DMatrix<double> a(proc, grid, n);
    a.set_from(entry);
    DistributedVector<double> p(proc, a.vector_dist());
    DistributedVector<double> q(proc, a.result_dist());
    p.set_from(pval);
    a.matvec(p, q);
    // The round-trip a CG iteration needs: q back into p's distribution.
    auto q2 = hpfcg::hpf::redistribute(q, a.vector_dist());
    const auto f1 = q.to_global();
    const auto f2 = q2.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(f1[i], f2[i]);
  });
}

TEST_P(Grid2DMatvecTest, BlockOperandOffTheGridMapThrowsOnEveryRank) {
  // A BLOCK vector is the grid's own map only on a one-column grid; on any
  // other grid matvec must refuse a BLOCK p, and separately a BLOCK q, on
  // every rank.  n = 121 keeps BLOCK off both grid maps on every grid here
  // with more than one column.
  const int np = GetParam();
  const std::size_t n = 121;
  std::vector<double> q_ref(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) q_ref[i] += entry(i, j) * pval(j);
  }
  const bool one_column = Grid2D::squarest(np).pc() == 1;
  std::atomic<int> throws{0};
  run_spmd(np, [&](Process& proc) {
    DenseGrid2DMatrix<double> a(proc, Grid2D::squarest(np), n);
    a.set_from(entry);
    const auto block =
        std::make_shared<const Distribution>(Distribution::block(n, np));
    EXPECT_EQ(*block == *a.vector_dist(), one_column);
    EXPECT_EQ(*block == *a.result_dist(), one_column);
    DistributedVector<double> p(proc, a.vector_dist());
    DistributedVector<double> q(proc, a.result_dist());
    DistributedVector<double> pb(proc, block);
    DistributedVector<double> qb(proc, block);
    p.set_from(pval);
    pb.set_from(pval);
    for (const auto& [pp, qq] : {std::pair{&pb, &q}, std::pair{&p, &qb}}) {
      if (one_column) {
        a.matvec(*pp, *qq);
        const auto full = qq->to_global();
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_NEAR(full[i], q_ref[i], 1e-9);
        }
        continue;
      }
      try {
        a.matvec(*pp, *qq);
      } catch (const hpfcg::util::Error&) {
        ++throws;
      }
    }
  });
  EXPECT_EQ(throws.load(), one_column ? 0 : 2 * np);
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, Grid2DMatvecTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 9, 12, 16));

TEST(Grid2DMatvec, BeatsStripesOnCommunicationVolume) {
  // The ablation headline: per-sweep bytes O(n/sqrt(P)) vs O(n) per rank.
  const std::size_t n = 240;
  const int np = 16;  // 4x4 grid
  auto rt_grid = run_spmd(np, [&](Process& proc) {
    const auto grid = Grid2D::squarest(np);
    DenseGrid2DMatrix<double> a(proc, grid, n);
    a.set_from(entry);
    DistributedVector<double> p(proc, a.vector_dist());
    DistributedVector<double> q(proc, a.result_dist());
    p.set_from(pval);
    a.matvec(p, q);
  });
  auto rt_stripe = run_spmd(np, [&](Process& proc) {
    auto dist = std::make_shared<const Distribution>(
        Distribution::block(n, np));
    hpfcg::hpf::DenseRowBlockMatrix<double> a(proc, dist);
    a.set_from(entry);
    DistributedVector<double> p(proc, dist), q(proc, dist);
    p.set_from(pval);
    hpfcg::hpf::matvec_rowwise(a, p, q);
  });
  EXPECT_LT(rt_grid->total_stats().bytes_sent,
            rt_stripe->total_stats().bytes_sent);
}

}  // namespace
