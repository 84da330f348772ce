// HaloPlan inspector/executor: the ghost set must be exactly the union of
// foreign columns (deduplicated), tiny problems with empty ranks and NP=1
// must degenerate cleanly, the touched-column plan must be bit-identical
// to the every-foreign-index plan (HPFCG_HALO=0, the gather volume) while
// moving fewer bytes, redistribution must invalidate and rebuild the plan,
// and the hoisted transpose scratch must allocate exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "hpfcg/hpf/redistribute.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/dist_csr_grid2d.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/sparse/redistribute.hpp"
#include "spmd_test_util.hpp"

using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::sparse::DistCsr;
using hpfcg::sparse::DistCsrGrid2D;
namespace halo = hpfcg::sparse::halo;
using hpfcg_test::run_spmd;
using hpfcg_test::test_machine_sizes;

namespace {

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

double pval(std::size_t g) { return 0.25 * static_cast<double>(g % 9) - 1.0; }

class HaloPlanTest : public ::testing::TestWithParam<int> {};

TEST_P(HaloPlanTest, GhostSetIsDedupedUnionOfForeignColumns) {
  const int np = GetParam();
  const auto a = hpfcg::sparse::random_spd(64, 6, 7);
  const std::size_t n = a.n_rows();
  halo::ScopedEnable on;
  run_spmd(np, [&](Process& proc) {
    auto row_dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
    DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
    p.set_from(pval);
    mat.matvec(p, q);  // first sweep builds the plan

    const auto [lo, hi] = row_dist->local_range(proc.rank());
    std::set<std::size_t> expect;
    for (std::size_t i = lo; i < hi; ++i) {
      for (const std::size_t c : a.row_cols(i)) {
        if (c < lo || c >= hi) expect.insert(c);
      }
    }
    const auto& plan = mat.halo_plan();
    EXPECT_TRUE(plan.built());
    const auto& ghosts = plan.ghost_gids();
    // Deduplicated: strictly increasing, and exactly the foreign union.
    EXPECT_TRUE(std::is_sorted(ghosts.begin(), ghosts.end()));
    EXPECT_EQ(std::set<std::size_t>(ghosts.begin(), ghosts.end()).size(),
              ghosts.size());
    EXPECT_EQ(std::vector<std::size_t>(expect.begin(), expect.end()), ghosts);
    EXPECT_EQ(proc.stats().ghost_entries, ghosts.size());
  });
}

TEST_P(HaloPlanTest, TinyProblemWithEmptyRanksDegeneratesCleanly) {
  // n = 3 < NP for most machine sizes: ranks owning nothing must build an
  // empty plan, move no halo bytes, and the product must still be right.
  const int np = GetParam();
  const auto a = hpfcg::sparse::laplacian_2d(3, 1);
  const std::size_t n = a.n_rows();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  a.matvec(p_full, q_ref);

  halo::ScopedEnable on;
  run_spmd(np, [&](Process& proc) {
    auto row_dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
    DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
    p.set_from(pval);
    mat.matvec(p, q);
    if (row_dist->local_count(proc.rank()) == 0) {
      EXPECT_EQ(mat.halo_plan().n_ghosts(), 0u);
      EXPECT_EQ(proc.stats().halo_bytes, 0u);
    }
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-12);
  });
}

TEST(HaloPlanSingleRank, Np1IsANoOp) {
  const auto a = hpfcg::sparse::laplacian_2d(5, 5);
  const std::size_t n = a.n_rows();
  std::vector<double> p_full(n), q_ref(n);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  a.matvec(p_full, q_ref);

  halo::ScopedEnable on;
  auto rt = run_spmd(1, [&](Process& proc) {
    auto row_dist = share(Distribution::block(n, 1));
    auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
    DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
    p.set_from(pval);
    mat.matvec(p, q);
    EXPECT_TRUE(mat.halo_plan().built());
    EXPECT_EQ(mat.halo_plan().n_ghosts(), 0u);
    EXPECT_EQ(mat.halo_plan().send_neighbors(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(q.local()[i], q_ref[i], 1e-12);
    }
  });
  EXPECT_EQ(rt->total_stats().halo_msgs, 0u);
  EXPECT_EQ(rt->total_stats().halo_bytes, 0u);
}

TEST_P(HaloPlanTest, MatvecBitIdenticalToGatherPath) {
  // Both ghost sets cover every column a row reads and each row
  // accumulates its entries in the same k order, so the results must agree
  // to the last bit — the property the solver residual-history gates rely
  // on.
  const int np = GetParam();
  const auto a = hpfcg::sparse::random_spd(72, 7, 11);
  const std::size_t n = a.n_rows();
  const auto product = [&](bool use_halo) {
    halo::ScopedEnable mode(use_halo);
    std::vector<double> out;
    run_spmd(np, [&](Process& proc) {
      auto row_dist = share(Distribution::block(n, proc.nprocs()));
      auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
      DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
      p.set_from(pval);
      mat.matvec(p, q);
      mat.matvec(q, p);  // second sweep reuses the cached plan
      const auto full = p.to_global();
      if (proc.rank() == 0) out = full;
    });
    return out;
  };
  EXPECT_EQ(product(true), product(false));
}

TEST_P(HaloPlanTest, TransposeHaloMatchesSerial) {
  const int np = GetParam();
  const auto a = hpfcg::sparse::figure1_matrix();
  const std::size_t n = a.n_rows();
  std::vector<double> p_full(n), q_ref(n, 0.0);
  for (std::size_t g = 0; g < n; ++g) p_full[g] = pval(g);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      q_ref[cols[k]] += vals[k] * p_full[i];
    }
  }
  halo::ScopedEnable on;
  run_spmd(np, [&](Process& proc) {
    auto row_dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
    DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
    p.set_from(pval);
    mat.matvec_transpose(p, q);
    const auto full = q.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], q_ref[i], 1e-12);
  });
}

TEST_P(HaloPlanTest, RedistributeInvalidatesAndRebuildsBitIdentically) {
  // The mid-solve rebalance path: migrating the matrix must discard the
  // old plan, and the rebuilt plan's matvec must agree with the
  // pre-migration product to the last bit (per-row k order is independent
  // of the cut points).
  const int np = GetParam();
  const auto a = hpfcg::sparse::random_spd(60, 6, 13);
  const std::size_t n = a.n_rows();
  halo::ScopedEnable on;
  run_spmd(np, [&](Process& proc) {
    const int p_count = proc.nprocs();
    auto row_dist = share(Distribution::block(n, p_count));
    auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
    DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
    p.set_from(pval);
    mat.matvec(p, q);
    const auto before = q.to_global();
    const std::size_t old_fp = mat.halo_plan().topology_fingerprint();

    // Skewed target: rank 0 takes a double-size block, the rest splits.
    std::vector<std::size_t> cuts(static_cast<std::size_t>(p_count) + 1, 0);
    const std::size_t head = std::min<std::size_t>(n, 2 * (n / p_count + 1));
    cuts[1] = p_count > 1 ? head : n;
    for (int r = 2; r <= p_count; ++r) {
      cuts[static_cast<std::size_t>(r)] =
          head + (n - head) * static_cast<std::size_t>(r - 1) /
                     static_cast<std::size_t>(p_count - 1);
    }
    auto mat2 = hpfcg::sparse::redistribute(mat, cuts);
    if (p_count > 1) {
      EXPECT_FALSE(mat2.halo_plan().built());  // migration dropped the plan
    } else {
      // Identical target short-circuits to a copy; the plan survives
      // because the ownership map it was built against is unchanged.
      EXPECT_TRUE(mat2.halo_plan().built());
    }

    auto p2 = hpfcg::hpf::redistribute(p, mat2.row_dist_ptr());
    DistributedVector<double> q2(proc, mat2.row_dist_ptr());
    mat2.matvec(p2, q2);
    EXPECT_TRUE(mat2.halo_plan().built());
    if (p_count > 1) {
      EXPECT_NE(mat2.halo_plan().topology_fingerprint(), old_fp);
    }
    const auto after = q2.to_global();
    EXPECT_EQ(before, after);  // bit-identical across the migration
  });
}

TEST_P(HaloPlanTest, TransposeScratchAllocatesOnceAcrossSweeps) {
  const int np = GetParam();
  const auto a = hpfcg::sparse::random_spd(48, 5, 3);
  const std::size_t n = a.n_rows();
  for (const bool use_halo : {true, false}) {
    halo::ScopedEnable mode(use_halo);
    run_spmd(np, [&](Process& proc) {
      auto row_dist = share(Distribution::block(n, proc.nprocs()));
      auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
      DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
      p.set_from(pval);
      for (int sweep = 0; sweep < 4; ++sweep) mat.matvec_transpose(p, q);
      EXPECT_EQ(mat.transpose_scratch_allocations(), 1u)
          << "halo=" << use_halo;
    });
  }
}

TEST_P(HaloPlanTest, PerSweepBytesShrinkVersusGather) {
  // The perf claim at test scale: once the plan is built, a marginal halo
  // sweep moves strictly fewer bytes than a marginal gather sweep (the
  // boundary of a 2-D Laplacian block row is O(nx), the gather is O(n)).
  const int np = GetParam();
  if (np < 2) GTEST_SKIP() << "needs at least one foreign boundary";
  const auto a = hpfcg::sparse::laplacian_2d(16, 16);
  const std::size_t n = a.n_rows();
  const auto marginal_bytes = [&](bool use_halo) {
    halo::ScopedEnable mode(use_halo);
    const auto bytes_for = [&](int sweeps) {
      auto rt = run_spmd(np, [&](Process& proc) {
        auto row_dist = share(Distribution::block(n, proc.nprocs()));
        auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
        DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
        p.set_from(pval);
        for (int sweep = 0; sweep < sweeps; ++sweep) mat.matvec(p, q);
      });
      return rt->total_stats().bytes_sent;
    };
    return bytes_for(2) - bytes_for(1);
  };
  EXPECT_LT(marginal_bytes(true), marginal_bytes(false));
}

TEST_P(HaloPlanTest, EveryForeignPlanMovesTheAllgatherVolume) {
  // HPFCG_HALO=0 keeps the Scenario-1 gather's volume on the halo
  // executor: every rank receives all n entries but its own, so a marginal
  // sweep moves (NP-1)·n·8 bytes machine-wide — what the replicating
  // allgatherv moved — counted as halo bytes.  No to_global() gather runs
  // in either mode.
  const int np = GetParam();
  const auto a = hpfcg::sparse::laplacian_2d(8, 8);
  const std::size_t n = a.n_rows();
  for (const bool use_halo : {true, false}) {
    halo::ScopedEnable mode(use_halo);
    const auto totals = [&](int sweeps) {
      auto rt = run_spmd(np, [&](Process& proc) {
        auto row_dist = share(Distribution::block(n, proc.nprocs()));
        auto mat = DistCsr<double>::row_aligned(proc, a, row_dist);
        DistributedVector<double> p(proc, row_dist), q(proc, row_dist);
        p.set_from(pval);
        for (int sweep = 0; sweep < sweeps; ++sweep) mat.matvec(p, q);
      });
      return rt->total_stats();
    };
    const auto one = totals(1);
    const auto two = totals(2);
    EXPECT_EQ(two.gather_bytes, 0u) << "halo=" << use_halo;
    if (!use_halo) {
      const std::uint64_t allgather =
          static_cast<std::uint64_t>(np - 1) * n * sizeof(double);
      EXPECT_EQ(two.bytes_sent - one.bytes_sent, allgather);
      EXPECT_EQ(two.halo_bytes - one.halo_bytes, allgather);
      EXPECT_EQ(one.ghost_entries, static_cast<std::uint64_t>(np - 1) * n);
    }
  }
}

TEST_P(HaloPlanTest, Grid2dHaloBitIdenticalToGroupGather) {
  const int np = GetParam();
  const auto a = hpfcg::sparse::random_spd(54, 6, 5);
  const auto product = [&](bool use_halo) {
    halo::ScopedEnable mode(use_halo);
    std::vector<double> out;
    run_spmd(np, [&](Process& proc) {
      const auto grid = hpfcg::hpf::Grid2D::squarest(proc.nprocs());
      DistCsrGrid2D<double> mat(proc, a, grid);
      DistributedVector<double> p(proc, mat.vector_dist());
      DistributedVector<double> q(proc, mat.result_dist());
      p.set_from(pval);
      mat.matvec(p, q);
      mat.matvec(p, q);  // second sweep reuses the cached group plan
      const auto full = q.to_global();
      if (proc.rank() == 0) out = full;
    });
    return out;
  };
  EXPECT_EQ(product(true), product(false));
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, HaloPlanTest,
                         ::testing::ValuesIn(test_machine_sizes()));

}  // namespace
