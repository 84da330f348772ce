#include <atomic>
// Sparse CSR on a 2-D processor grid: correctness for every machine shape,
// CG end-to-end via redistribution, and the communication comparison with
// 1-D row stripes.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "hpfcg/hpf/redistribute.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/dist_csr_grid2d.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "spmd_test_util.hpp"

namespace sp = hpfcg::sparse;
namespace sv = hpfcg::solvers;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::hpf::Grid2D;
using hpfcg::msg::Process;
using hpfcg_test::run_spmd;

namespace {

double pval(std::size_t g) { return 0.4 * static_cast<double>(g % 9) - 1.5; }

class SparseGrid2DTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseGrid2DTest, MatvecMatchesSerial) {
  const int np = GetParam();
  const auto a = sp::laplacian_2d(9, 7);  // awkward sizes
  const std::size_t n = a.n_rows();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  a.matvec(p_full, q_ref);

  run_spmd(np, [&](Process& proc) {
    sp::DistCsrGrid2D<double> mat(proc, a, Grid2D::squarest(np));
    DistributedVector<double> p(proc, mat.vector_dist());
    DistributedVector<double> q(proc, mat.result_dist());
    p.from_global(p_full);
    mat.matvec(p, q);
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-12);
  });
}

TEST_P(SparseGrid2DTest, TileNnzPartitionsTheMatrix) {
  const int np = GetParam();
  const auto a = sp::random_spd(80, 6, 7);
  std::atomic<std::size_t> total{0};
  run_spmd(np, [&](Process& proc) {
    sp::DistCsrGrid2D<double> mat(proc, a, Grid2D::squarest(np));
    total += mat.tile_nnz();
  });
  EXPECT_EQ(total.load(), a.nnz());
}

TEST_P(SparseGrid2DTest, CgWithPerIterationRedistributionSolves) {
  // A CG iteration needs q back in p's distribution; the redistribute
  // round-trip costs O(n/NP) per rank and keeps the 2-D layout usable
  // end-to-end.
  const int np = GetParam();
  const auto a = sp::laplacian_2d(8, 8);
  const std::size_t n = a.n_rows();
  const auto b_full = sp::random_rhs(n, 47);
  std::vector<double> x_ref(n, 0.0);
  const auto ref = sv::cg(a, b_full, x_ref, {.rel_tolerance = 1e-9});
  ASSERT_TRUE(ref.converged);

  run_spmd(np, [&](Process& proc) {
    sp::DistCsrGrid2D<double> mat(proc, a, Grid2D::squarest(np));
    const auto vdist = mat.vector_dist();
    const auto rdist = mat.result_dist();
    DistributedVector<double> b(proc, vdist), x(proc, vdist);
    b.from_global(b_full);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      DistributedVector<double> q2(proc, rdist);
      mat.matvec(p, q2);
      auto back = hpfcg::hpf::redistribute(q2, vdist);
      hpfcg::hpf::assign(back, q);
    };
    const auto res = sv::cg_dist<double>(op, b, x, {.rel_tolerance = 1e-9});
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, ref.iterations);
    const auto full = x.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], x_ref[i], 1e-6);
  });
}

TEST_P(SparseGrid2DTest, BlockOperandOffTheGridMapThrowsOnEveryRank) {
  // A BLOCK vector is the grid's own map only on a one-column grid; on any
  // other grid matvec must refuse a BLOCK p, and separately a BLOCK q, on
  // every rank instead of multiplying the wrong entries.  The 11x11
  // Laplacian keeps BLOCK off both grid maps on every grid here with more
  // than one column.
  const int np = GetParam();
  const auto a = sp::laplacian_2d(11, 11);
  const std::size_t n = a.n_rows();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  a.matvec(p_full, q_ref);
  const bool one_column = Grid2D::squarest(np).pc() == 1;
  std::atomic<int> throws{0};
  run_spmd(np, [&](Process& proc) {
    sp::DistCsrGrid2D<double> mat(proc, a, Grid2D::squarest(np));
    const auto block =
        std::make_shared<const Distribution>(Distribution::block(n, np));
    EXPECT_EQ(*block == *mat.vector_dist(), one_column);
    EXPECT_EQ(*block == *mat.result_dist(), one_column);
    DistributedVector<double> p(proc, mat.vector_dist());
    DistributedVector<double> q(proc, mat.result_dist());
    DistributedVector<double> pb(proc, block);
    DistributedVector<double> qb(proc, block);
    p.from_global(p_full);
    pb.from_global(p_full);
    for (const auto& [pp, qq] : {std::pair{&pb, &q}, std::pair{&p, &qb}}) {
      if (one_column) {
        mat.matvec(*pp, *qq);
        const auto full = qq->to_global();
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_NEAR(full[i], q_ref[i], 1e-12);
        }
        continue;
      }
      try {
        mat.matvec(*pp, *qq);
      } catch (const hpfcg::util::Error&) {
        ++throws;
      }
    }
  });
  EXPECT_EQ(throws.load(), one_column ? 0 : 2 * np);
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, SparseGrid2DTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 9, 12, 16));

TEST(SparseGrid2D, DenserMatrixFavorsTheGridOverStripes) {
  // With enough nonzeros per row the vector traffic dominates and the 2-D
  // layout's O(n/sqrt(P)) beats the stripes' O(n) broadcast.
  const auto a = sp::random_spd(768, 48, 13);  // dense-ish sparse matrix
  const std::size_t n = a.n_rows();
  const int np = 16;

  auto rt_grid = run_spmd(np, [&](Process& proc) {
    sp::DistCsrGrid2D<double> mat(proc, a, Grid2D::squarest(np));
    DistributedVector<double> p(proc, mat.vector_dist());
    DistributedVector<double> q(proc, mat.result_dist());
    p.set_from(pval);
    mat.matvec(p, q);
  });
  auto rt_stripe = run_spmd(np, [&](Process& proc) {
    auto dist = std::make_shared<const Distribution>(
        Distribution::block(n, np));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> p(proc, dist), q(proc, dist);
    p.set_from(pval);
    mat.matvec(p, q);
  });
  EXPECT_LT(rt_grid->total_stats().bytes_sent,
            rt_stripe->total_stats().bytes_sent);
}

}  // namespace
