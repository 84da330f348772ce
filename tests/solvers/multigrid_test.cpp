// Geometric multigrid V-cycle preconditioner (the HPCG-class workload):
// hierarchy construction, grid-transfer round trips, V-cycle PCG
// convergence vs Jacobi-PCG, exact-smoother NP-invariance under repro
// mode (including across a mid-solve rebalance that migrates the cached
// hierarchy), preconditioner-symmetry property probes for Jacobi / SSOR /
// V-cycle, and the smoother's named zero-diagonal diagnostic.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/solvers/multigrid.hpp"
#include "hpfcg/solvers/preconditioner.hpp"
#include "hpfcg/solvers/rebalance.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/util/error.hpp"
#include "spmd_test_util.hpp"

namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg_test::run_spmd;
using hpfcg_test::test_machine_sizes;

namespace {

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

constexpr std::array<std::size_t, 3> kDims{16, 8, 8};  // 1024 rows

/// Runs MG-PCG on the 27-point stencil and returns the residual history
/// (rank 0's copy) plus the solution.
struct MgRun {
  std::vector<double> history;
  std::vector<double> x_full;
  sv::SolveResult res;
  bool exact = false;
};

MgRun run_mg_pcg(int np, const sv::MgOptions& mg_opts,
                 std::size_t rebalance_every = 0,
                 bool skewed_start = false) {
  const auto a = sp::stencil27_3d(kDims[0], kDims[1], kDims[2]);
  const std::size_t n = a.n_rows();
  const auto b_full = sp::random_rhs(n, 71);
  MgRun out;
  run_spmd(np, [&](Process& proc) {
    hpfcg::hpf::DistPtr dist;
    if (skewed_start && proc.nprocs() > 1) {
      // Deliberately unbalanced cuts so the first rebalance must migrate.
      std::vector<std::size_t> cuts(
          static_cast<std::size_t>(proc.nprocs()) + 1, n);
      cuts[0] = 0;
      for (int r = 1; r < proc.nprocs(); ++r) {
        cuts[static_cast<std::size_t>(r)] =
            n / 2 + static_cast<std::size_t>(r - 1) * (n / 2) /
                        static_cast<std::size_t>(proc.nprocs());
      }
      dist = share(Distribution::from_cuts(n, std::move(cuts)));
    } else {
      dist = share(Distribution::block(n, proc.nprocs()));
    }
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    mat.enable_caching();
    mat.prepare_halo();
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(b_full);
    sv::MgPreconditioner mg(proc, mat, kDims, mg_opts);
    if (proc.rank() == 0) out.exact = mg.exact_smoother();
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    sv::RebalanceHook hook;
    if (rebalance_every > 0) {
      hook = sv::make_csr_rebalancer<double>(
          mat, [&](const hpfcg::hpf::DistPtr& nd) { mg.migrate_fine(nd); });
    }
    const auto res = sv::pcg_dist<double>(
        op, mg.prec(), b, x,
        {.max_iterations = 200,
         .rel_tolerance = 1e-10,
         .track_residuals = true,
         .rebalance_every = rebalance_every},
        hook);
    const auto full = x.to_global();
    if (proc.rank() == 0) {
      out.history = res.residual_history;
      out.x_full = full;
      out.res = res;
    }
  });
  return out;
}

TEST(MgHierarchy, CoarsensUntilOddOrSmall) {
  run_spmd(2, [&](Process& proc) {
    const auto a = sp::stencil27_3d(16, 8, 8);
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    sv::MgPreconditioner mg(proc, mat, {16, 8, 8},
                            {.max_levels = 8, .min_coarse_rows = 8});
    // 16x8x8 (1024) -> 8x4x4 (128) -> 4x2x2 (16) -> stop: 2x1x1 has odd
    // extents.
    ASSERT_EQ(mg.n_levels(), 3u);
    EXPECT_EQ(mg.level_dims(1), (std::array<std::size_t, 3>{8, 4, 4}));
    EXPECT_EQ(mg.level_op(1).n(), 128u);
    EXPECT_EQ(mg.level_op(2).n(), 16u);
    // min_coarse_rows stops earlier when asked.
    sv::MgPreconditioner shallow(proc, mat, {16, 8, 8},
                                 {.max_levels = 8, .min_coarse_rows = 100});
    EXPECT_EQ(shallow.n_levels(), 2u);
  });
}

TEST(MgHierarchy, RejectsMismatchedDims) {
  run_spmd(1, [&](Process& proc) {
    const auto a = sp::stencil27_3d(4, 4, 4);
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    EXPECT_THROW(sv::MgPreconditioner(proc, mat, {4, 4, 8}),
                 hpfcg::util::Error);
  });
}

class MultigridTest : public ::testing::TestWithParam<int> {};

TEST_P(MultigridTest, VcyclePcgMatchesSerialCgAndBeatsJacobiPcg) {
  const int np = GetParam();
  const auto a = sp::stencil27_3d(kDims[0], kDims[1], kDims[2]);
  const std::size_t n = a.n_rows();
  const auto b_full = sp::random_rhs(n, 71);
  std::vector<double> x_ref(n, 0.0);
  const auto ref = sv::cg(a, b_full, x_ref, {.rel_tolerance = 1e-10});
  ASSERT_TRUE(ref.converged);

  const auto mg = run_mg_pcg(np, {});
  ASSERT_TRUE(mg.res.converged);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(mg.x_full[i], x_ref[i], 1e-6 * (1.0 + std::abs(x_ref[i])));
  }

  // Jacobi-PCG on the same system, same machine.  This grid is small, so
  // the gap is modest; bench_hpcg gates the full MG <= 1/3 Jacobi bar on
  // the HPCG-sized grid where the hierarchy pays off.
  std::size_t jacobi_iters = 0;
  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist),
        inv_diag(proc, dist);
    b.from_global(b_full);
    inv_diag.set_from([&](std::size_t g) { return 1.0 / a.at(g, g); });
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const auto res = sv::pcg_dist<double>(
        op, sv::jacobi_dist<double>(inv_diag), b, x,
        {.max_iterations = 500, .rel_tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    if (proc.rank() == 0) jacobi_iters = res.iterations;
  });
  EXPECT_LE(2 * mg.res.iterations, jacobi_iters)
      << "MG-PCG took " << mg.res.iterations << " iterations vs Jacobi-PCG "
      << jacobi_iters;
}

TEST_P(MultigridTest, HybridSmootherAlsoConverges) {
  const int np = GetParam();
  const auto mg =
      run_mg_pcg(np, {.smoother = sv::MgSmoother::kHybridSymGs});
  EXPECT_FALSE(mg.exact);
  EXPECT_TRUE(mg.res.converged);
  EXPECT_LE(mg.res.relative_residual, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, MultigridTest,
                         ::testing::ValuesIn(test_machine_sizes()));

TEST(MultigridRepro, ExactSmootherHistoriesBitIdenticalAcrossNp) {
  if (!hpfcg::repro::kCompiled) GTEST_SKIP() << "HPFCG_REPRO compiled out";
  hpfcg::repro::ScopedEnable on;
  const auto ref = run_mg_pcg(1, {});
  ASSERT_TRUE(ref.res.converged);
  EXPECT_TRUE(ref.exact);  // kAuto samples the repro flag at setup
  for (const int np : {2, 4, 8}) {
    const auto got = run_mg_pcg(np, {});
    EXPECT_TRUE(got.exact);
    ASSERT_EQ(got.history.size(), ref.history.size()) << "np=" << np;
    for (std::size_t k = 0; k < ref.history.size(); ++k) {
      EXPECT_EQ(got.history[k], ref.history[k]) << "np=" << np << " k=" << k;
    }
    ASSERT_EQ(got.x_full.size(), ref.x_full.size());
    for (std::size_t i = 0; i < ref.x_full.size(); ++i) {
      EXPECT_EQ(got.x_full[i], ref.x_full[i]) << "np=" << np << " i=" << i;
    }
  }
}

TEST(MultigridRepro, RebalanceMigratesHierarchyBitIdentically) {
  if (!hpfcg::repro::kCompiled) GTEST_SKIP() << "HPFCG_REPRO compiled out";
  hpfcg::repro::ScopedEnable on;
  const auto ref = run_mg_pcg(1, {});
  ASSERT_TRUE(ref.res.converged);
  // Skewed initial cuts force the first rebalance to migrate the fine
  // matrix; migrate_fine() re-wires the cached hierarchy.  Exact smoother +
  // exact reductions make the whole history partition-invariant, so even a
  // run whose cuts CHANGE mid-solve reproduces the serial bits.
  for (const int np : {2, 4, 8}) {
    const auto got = run_mg_pcg(np, {}, /*rebalance_every=*/3,
                                /*skewed_start=*/true);
    ASSERT_TRUE(got.res.converged) << "np=" << np;
    ASSERT_EQ(got.history.size(), ref.history.size()) << "np=" << np;
    for (std::size_t k = 0; k < ref.history.size(); ++k) {
      EXPECT_EQ(got.history[k], ref.history[k]) << "np=" << np << " k=" << k;
    }
  }
}

/// r1·(M r2) == r2·(M r1): the self-adjointness PCG requires of its
/// preconditioner, probed with deterministic pseudo-random vectors.
class PrecSymmetryTest : public ::testing::TestWithParam<int> {};

TEST_P(PrecSymmetryTest, JacobiAndVcycleAreSelfAdjoint) {
  const int np = GetParam();
  const auto a = sp::stencil27_3d(kDims[0], kDims[1], kDims[2]);
  const std::size_t n = a.n_rows();
  const auto r1_full = sp::random_rhs(n, 201);
  const auto r2_full = sp::random_rhs(n, 202);

  for (const auto smoother :
       {sv::MgSmoother::kExactSymGs, sv::MgSmoother::kHybridSymGs}) {
    run_spmd(np, [&](Process& proc) {
      auto dist = share(Distribution::block(n, proc.nprocs()));
      auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
      mat.prepare_halo();
      DistributedVector<double> r1(proc, dist), r2(proc, dist),
          z1(proc, dist), z2(proc, dist);
      r1.from_global(r1_full);
      r2.from_global(r2_full);

      sv::MgPreconditioner mg(proc, mat, kDims, {.smoother = smoother});
      mg.apply(r2, z2);  // z2 = M^{-1} r2
      mg.apply(r1, z1);  // z1 = M^{-1} r1
      const double d12 = hpfcg::hpf::dot_product(r1, z2);
      const double d21 = hpfcg::hpf::dot_product(r2, z1);
      if (proc.rank() == 0) {
        EXPECT_NEAR(d12, d21, 1e-10 * (std::abs(d12) + std::abs(d21)))
            << "V-cycle (" << (mg.exact_smoother() ? "exact" : "hybrid")
            << " smoother) not self-adjoint at np=" << proc.nprocs();
      }

      // Jacobi for contrast: diagonal, so exactly self-adjoint.
      DistributedVector<double> inv_diag(proc, dist);
      inv_diag.set_from([&](std::size_t g) { return 1.0 / a.at(g, g); });
      const auto jac = sv::jacobi_dist<double>(inv_diag);
      jac(r2, z2);
      jac(r1, z1);
      const double j12 = hpfcg::hpf::dot_product(r1, z2);
      const double j21 = hpfcg::hpf::dot_product(r2, z1);
      if (proc.rank() == 0) {
        EXPECT_NEAR(j12, j21, 1e-12 * (std::abs(j12) + std::abs(j21)));
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, PrecSymmetryTest,
                         ::testing::ValuesIn(test_machine_sizes()));

TEST(PrecSymmetry, SerialSsorIsSelfAdjoint) {
  const auto a = sp::laplacian_3d(6, 6, 6);
  const std::size_t n = a.n_rows();
  const auto r1 = sp::random_rhs(n, 203);
  const auto r2 = sp::random_rhs(n, 204);
  std::vector<double> z1(n), z2(n);
  const auto ssor = sv::ssor_preconditioner(a, 1.4);
  ssor(r1, z1);
  ssor(r2, z2);
  double d12 = 0.0, d21 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    d12 += r1[i] * z2[i];
    d21 += r2[i] * z1[i];
  }
  EXPECT_NEAR(d12, d21, 1e-12 * (std::abs(d12) + std::abs(d21)));
}

TEST(GsHalfSweep, MatchesSerialGaussSeidelSweep) {
  const auto a = sp::stencil27_3d(8, 4, 4);
  const std::size_t n = a.n_rows();
  const auto b_full = sp::random_rhs(n, 61);
  // Serial reference: one forward + one backward in-place sweep.
  std::vector<double> x_ref(n, 0.0);
  const auto serial_relax = [&](std::size_t i) {
    double acc = b_full[i];
    const auto cols = a.row_cols(i);
    const auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] != i) acc -= vals[k] * x_ref[cols[k]];
    }
    x_ref[i] = acc / a.at(i, i);
  };
  for (std::size_t i = 0; i < n; ++i) serial_relax(i);
  for (std::size_t i = n; i-- > 0;) serial_relax(i);

  // HPFCG_HALO off runs the same pipeline over the every-foreign plan.
  for (const bool use_halo : {true, false}) {
    sp::halo::ScopedEnable mode(use_halo);
    for (const int np : test_machine_sizes()) {
      run_spmd(np, [&](Process& proc) {
        auto dist = share(Distribution::block(n, proc.nprocs()));
        auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
        mat.prepare_halo();
        DistributedVector<double> b(proc, dist), x(proc, dist);
        b.from_global(b_full);
        mat.gs_half_sweep(b, x, /*forward=*/true, /*exact=*/true);
        mat.gs_half_sweep(b, x, /*forward=*/false, /*exact=*/true);
        const auto full = x.to_global();
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(full[i], x_ref[i])
              << "halo=" << use_halo << " np=" << np << " row " << i;
        }
      });
    }
  }
}

TEST(GsHalfSweep, ZeroDiagonalNamesTheRow) {
  // 3x3 system whose middle row has no diagonal entry.
  const std::vector<double> dense = {2.0, -1.0, 0.0,   //
                                     -1.0, 0.0, -1.0,  //
                                     0.0, -1.0, 2.0};
  const auto a = sp::Csr<double>::from_dense(3, 3, dense);
  run_spmd(1, [&](Process& proc) {
    auto dist = share(Distribution::block(3, proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    try {
      mat.gs_half_sweep(b, x, true, true);
      FAIL() << "expected a zero-diagonal diagnostic";
    } catch (const hpfcg::util::Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "gs_half_sweep: zero or missing diagonal in global row 1"),
                std::string::npos)
          << e.what();
    }
  });
}

/// Fine gid co-located with coarse gid `ic` (every extent doubles).
std::size_t injection_point(std::array<std::size_t, 3> fine,
                            std::array<std::size_t, 3> coarse,
                            std::size_t ic) {
  const std::size_t xc = ic % coarse[0];
  const std::size_t yc = ic / coarse[0] % coarse[1];
  const std::size_t zc = ic / (coarse[0] * coarse[1]);
  return (2 * zc * fine[1] + 2 * yc) * fine[0] + 2 * xc;
}

TEST(GridTransfer, MismatchedExtentsThrowOnEveryRank) {
  // 2x4x2 is not the halving of 4x4x4 in y: unvalidated, the plan would
  // inject fine points from the wrong z-planes.
  constexpr std::array<std::size_t, 3> kFine{4, 4, 4};
  constexpr std::array<std::size_t, 3> kCoarse{2, 4, 2};
  for (const int np : test_machine_sizes()) {
    run_spmd(np, [&](Process& proc) {
      const auto fine = Distribution::block(64, proc.nprocs());
      const auto coarse = Distribution::block(16, proc.nprocs());
      sv::GridTransfer gt;
      EXPECT_THROW(gt.build(proc, kFine, fine, kCoarse, coarse),
                   hpfcg::util::Error)
          << "np=" << np << " rank " << proc.rank();
      // A fine grid smaller than its distribution is refused too.
      const auto small = Distribution::block(4, proc.nprocs());
      EXPECT_THROW(gt.build(proc, {4, 4, 2}, fine, {2, 2, 1}, small),
                   hpfcg::util::Error);
      EXPECT_FALSE(gt.built());
    });
  }
}

TEST(GridTransfer, SkewedFineMapMatchesSerialInjectionAndTranspose) {
  // Coarse BLOCK rows, fine rows cut so that coarse rank 1's injection
  // points split three ways: the first third on fine rank 0, the middle
  // third on itself, the rest on fine ranks 2.. — peer runs on both sides
  // of a self-owned run.
  constexpr std::array<std::size_t, 3> kFine{8, 8, 8};
  constexpr std::array<std::size_t, 3> kCoarse{4, 4, 4};
  constexpr std::size_t kNf = 512;
  constexpr std::size_t kNc = 64;
  std::vector<double> fine_full(kNf), coarse_full(kNc);
  for (std::size_t g = 0; g < kNf; ++g) {
    fine_full[g] = 0.5 + static_cast<double>((g * 37) % 101);
  }
  for (std::size_t g = 0; g < kNc; ++g) {
    coarse_full[g] = 0.25 * static_cast<double>((g * 13) % 29) - 3.0;
  }
  std::vector<double> injected(kNc), prolonged(fine_full);
  for (std::size_t ic = 0; ic < kNc; ++ic) {
    injected[ic] = fine_full[injection_point(kFine, kCoarse, ic)];
    prolonged[injection_point(kFine, kCoarse, ic)] += coarse_full[ic];
  }

  for (const int np : test_machine_sizes()) {
    const auto coarse = share(Distribution::block(kNc, np));
    std::vector<std::size_t> cuts{0, kNf};
    if (np > 1) {
      const auto [lo, hi] = coarse->local_range(1);
      const std::size_t third = (hi - lo) / 3;
      cuts = {0, injection_point(kFine, kCoarse, lo + third)};
      const std::size_t mid = injection_point(kFine, kCoarse, lo + 2 * third);
      for (int r = 2; r < np; ++r) {
        cuts.push_back(mid + (kNf - mid) * static_cast<std::size_t>(r - 2) /
                                 static_cast<std::size_t>(np - 2));
      }
      cuts.push_back(kNf);
    }
    const auto fine = share(Distribution::from_cuts(kNf, cuts));
    if (np >= 3) {
      // The layout the comment promises: fine owners 0, 1, 2 in that order.
      const auto [lo, hi] = coarse->local_range(1);
      std::vector<int> owners;
      for (std::size_t ic = lo; ic < hi; ++ic) {
        const int o = fine->owner(injection_point(kFine, kCoarse, ic));
        if (owners.empty() || owners.back() != o) owners.push_back(o);
      }
      ASSERT_GE(owners.size(), 3u) << "np=" << np;
      EXPECT_EQ(owners[0], 0);
      EXPECT_EQ(owners[1], 1);
      EXPECT_EQ(owners[2], 2);
    }
    run_spmd(np, [&](Process& proc) {
      sv::GridTransfer gt;
      gt.build(proc, kFine, *fine, kCoarse, *coarse);
      DistributedVector<double> f(proc, fine), c(proc, coarse);
      f.from_global(fine_full);
      gt.restrict_to(proc, std::span<const double>(f.local()), c.local());
      const auto c_full = c.to_global();
      c.from_global(coarse_full);
      gt.prolong_add(proc, std::span<const double>(c.local()), f.local());
      const auto f_full = f.to_global();
      EXPECT_EQ(c_full, injected) << "np=" << np;
      EXPECT_EQ(f_full, prolonged) << "np=" << np;
    });
  }
}

}  // namespace
