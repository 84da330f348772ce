// Schedule-perturbation replay: under adversarial any-source delivery the
// per-(src,tag) FIFO invariant must survive every permutation, solver
// workloads must stay bit-identical run over run (they never race), and a
// workload whose answer genuinely depends on match order must either
// reproduce the baseline or be flagged — never diverge silently.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/hpf/redistribute.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/msg/runtime.hpp"
#include "hpfcg/race/race.hpp"
#include "hpfcg/race/replay.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/multigrid.hpp"
#include "hpfcg/solvers/preconditioner.hpp"
#include "hpfcg/solvers/rebalance.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "spmd_test_util.hpp"

namespace race = hpfcg::race;
namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::msg::Runtime;

namespace {

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

/// Build-and-run one machine with the given replay seed and detection on;
/// returns the detector's race count after the run.  The bodies race on
/// purpose, so the verifier stays detached even under HPFCG_CHECK=1: its
/// teardown audit would turn every race the test counts into a throw.
std::size_t run_with_seed(int np, std::uint64_t seed,
                          const std::function<void(Process&)>& body) {
  race::ScopedEnable on;
  race::ScopedReplaySeed replay(seed);
  hpfcg::check::ScopedEnable no_audit(false);
  Runtime rt(np);
  rt.run(body);
  return rt.racer()->race_count();
}

}  // namespace

// ---- the fairness/FIFO property ----------------------------------------

TEST(RaceReplay, PerSourceFifoSurvivesEveryPermutation) {
  // Three senders each stream 8 sequenced values to rank 0 under one tag.
  // Whatever order the adversarial network interleaves the sources, each
  // source's own values must arrive in send order (only shard heads are
  // eligible), and the multiset must be complete.
  //
  // The detector only sees the candidates pending when a match happens, so
  // rank 0 first takes a per-sender "done" token (sent after the stream,
  // under its own tag): every stream is then fully pending before the
  // first recv_any, and the concurrent heads are always there to flag.  A
  // barrier would do the same but adds fence-order records of its own.
  constexpr int kNp = 4;
  constexpr int kPerSource = 8;
  constexpr int kDataTag = 21;
  constexpr int kDoneTag = 22;
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull, 7777ull}) {
    std::vector<std::vector<int>> seen(kNp);
    const std::size_t races =
        run_with_seed(kNp, seed, [&seen](Process& p) {
          if (p.rank() != 0) {
            for (int k = 0; k < kPerSource; ++k) {
              p.send_value<int>(0, kDataTag, k);
            }
            p.send_value<int>(0, kDoneTag, 1);
          } else {
            for (int s = 1; s < kNp; ++s) (void)p.recv_value<int>(s, kDoneTag);
            for (int i = 0; i < (kNp - 1) * kPerSource; ++i) {
              int src = -1;
              const int v = p.recv_any<int>(kDataTag, src)[0];
              seen[static_cast<std::size_t>(src)].push_back(v);
            }
          }
        });
    for (int s = 1; s < kNp; ++s) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " source " +
                   std::to_string(s));
      ASSERT_EQ(seen[static_cast<std::size_t>(s)].size(),
                static_cast<std::size_t>(kPerSource));
      EXPECT_TRUE(std::is_sorted(seen[static_cast<std::size_t>(s)].begin(),
                                 seen[static_cast<std::size_t>(s)].end()));
      for (int k = 0; k < kPerSource; ++k) {
        EXPECT_EQ(seen[static_cast<std::size_t>(s)][static_cast<std::size_t>(k)],
                  k);
      }
    }
    // The senders are mutually concurrent, so the detector must have
    // flagged the match-order race it was busy permuting.
    EXPECT_GE(races, 1u);
  }
}

// ---- solver replay invariance ------------------------------------------

class RaceReplaySolverTest : public ::testing::TestWithParam<int> {};

TEST_P(RaceReplaySolverTest, CgFusedIsReplayInvariant) {
  const int np = GetParam();
  const auto a = sp::laplacian_2d(7, 9);
  const auto b_full = sp::random_rhs(a.n_rows(), 23);

  const auto report = race::perturbed_replay(
      50, 0x5eedu + static_cast<std::uint64_t>(np),
      [&](std::uint64_t seed) {
        race::ScopedEnable on;
        race::ScopedReplaySeed replay(seed);
        Runtime rt(np);
        race::ReplayRun run;
        rt.run([&](Process& p) {
          auto dist = share(Distribution::block(a.n_rows(), p.nprocs()));
          auto mat = sp::DistCsr<double>::row_aligned(p, a, dist);
          DistributedVector<double> b(p, dist), x(p, dist);
          b.from_global(b_full);
          const sv::DistOp<double> op =
              [&](const DistributedVector<double>& q,
                  DistributedVector<double>& out) { mat.matvec(q, out); };
          const auto res = sv::cg_fused_dist<double>(
              op, b, x, {.rel_tolerance = 1e-10, .track_residuals = true});
          if (p.rank() == 0) run.signature = res.residual_signature();
        });
        run.races = rt.racer()->race_count();
        return run;
      });

  // Bit-identical residual histories across all 50 perturbed schedules,
  // and nothing flagged: the solver's receives are all directed or
  // collective — there is no match order to race on.
  EXPECT_TRUE(report.deterministic())
      << report.identical << "/" << report.perturbed.size() << " identical";
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.baseline.races, 0u);
}

TEST_P(RaceReplaySolverTest, HaloCgFusedIsReplayInvariant) {
  // The halo-exchange matvec path: the inspector's index exchange and every
  // executor sweep post *directed* per-source receives on fixed tags, so no
  // wildcard match order exists for the adversarial scheduler to permute —
  // 20 perturbed schedules must reproduce the baseline residual history
  // bit for bit with zero flagged races.
  const int np = GetParam();
  const auto a = sp::laplacian_2d(9, 8);
  const auto b_full = sp::random_rhs(a.n_rows(), 61);

  const auto report = race::perturbed_replay(
      20, 0x4a10u + static_cast<std::uint64_t>(np),
      [&](std::uint64_t seed) {
        hpfcg::sparse::halo::ScopedEnable halo_on(true);
        race::ScopedEnable on;
        race::ScopedReplaySeed replay(seed);
        Runtime rt(np);
        race::ReplayRun run;
        rt.run([&](Process& p) {
          auto dist = share(Distribution::block(a.n_rows(), p.nprocs()));
          auto mat = sp::DistCsr<double>::row_aligned(p, a, dist);
          DistributedVector<double> b(p, dist), x(p, dist);
          b.from_global(b_full);
          const sv::DistOp<double> op =
              [&](const DistributedVector<double>& q,
                  DistributedVector<double>& out) { mat.matvec(q, out); };
          const auto res = sv::cg_fused_dist<double>(
              op, b, x, {.rel_tolerance = 1e-10, .track_residuals = true});
          if (p.rank() == 0) {
            run.signature = res.residual_signature();
            EXPECT_TRUE(mat.halo_active());
          }
        });
        run.races = rt.racer()->race_count();
        return run;
      });

  EXPECT_TRUE(report.deterministic())
      << report.identical << "/" << report.perturbed.size() << " identical";
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.baseline.races, 0u);
}

TEST_P(RaceReplaySolverTest, PcgFusedIsReplayInvariant) {
  const int np = GetParam();
  const auto a = sp::random_spd(48, 5, 91);
  const auto b_full = sp::random_rhs(a.n_rows(), 37);
  const auto diag = a.diagonal();

  const auto report = race::perturbed_replay(
      50, 0xacedu + static_cast<std::uint64_t>(np),
      [&](std::uint64_t seed) {
        race::ScopedEnable on;
        race::ScopedReplaySeed replay(seed);
        Runtime rt(np);
        race::ReplayRun run;
        rt.run([&](Process& p) {
          auto dist = share(Distribution::block(a.n_rows(), p.nprocs()));
          auto mat = sp::DistCsr<double>::row_aligned(p, a, dist);
          DistributedVector<double> b(p, dist), x(p, dist),
              inv_diag(p, dist);
          b.from_global(b_full);
          inv_diag.set_from([&](std::size_t g) { return 1.0 / diag[g]; });
          const sv::DistOp<double> op =
              [&](const DistributedVector<double>& q,
                  DistributedVector<double>& out) { mat.matvec(q, out); };
          const auto res = sv::pcg_fused_dist<double>(
              op, sv::jacobi_dist(inv_diag), b, x,
              {.rel_tolerance = 1e-10, .track_residuals = true});
          if (p.rank() == 0) run.signature = res.residual_signature();
        });
        run.races = rt.racer()->race_count();
        return run;
      });

  EXPECT_TRUE(report.deterministic())
      << report.identical << "/" << report.perturbed.size() << " identical";
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.baseline.races, 0u);
}

TEST_P(RaceReplaySolverTest, PcgFusedReproRebalanceIsReplayInvariant) {
  // The reproducible mode's hardest schedule: exact-superaccumulator
  // reductions AND mid-solve redistribution under an adversarial delivery
  // order.  Every perturbed replay must reproduce the baseline residual
  // history bit for bit with nothing flagged — the repro merge is
  // collective (directed receives only) and the migration is a replicated
  // decision, so no wildcard match order exists.
  if (!hpfcg::repro::kCompiled) GTEST_SKIP() << "repro mode compiled out";
  const int np = GetParam();
  const auto a = sp::powerlaw_spd(96, 3, 5, 48, 13);
  const auto b_full = sp::random_rhs(a.n_rows(), 29);
  const auto diag = a.diagonal();

  const auto report = race::perturbed_replay(
      20, 0x4e9au + static_cast<std::uint64_t>(np),
      [&](std::uint64_t seed) {
        hpfcg::repro::ScopedEnable repro_on;
        race::ScopedEnable on;
        race::ScopedReplaySeed replay(seed);
        Runtime rt(np);
        race::ReplayRun run;
        rt.run([&](Process& p) {
          auto dist = share(Distribution::block(a.n_rows(), p.nprocs()));
          auto mat = sp::DistCsr<double>::row_aligned(p, a, dist);
          DistributedVector<double> b(p, dist), x(p, dist),
              inv_diag(p, dist);
          b.from_global(b_full);
          inv_diag.set_from([&](std::size_t g) { return 1.0 / diag[g]; });
          const sv::DistOp<double> op =
              [&](const DistributedVector<double>& q,
                  DistributedVector<double>& out) { mat.matvec(q, out); };
          const sv::DistPrec<double> prec =
              [&inv_diag](const DistributedVector<double>& r,
                          DistributedVector<double>& z) {
                hpfcg::hpf::hadamard(inv_diag, r, z);
              };
          const auto hook = sv::make_csr_rebalancer<double>(
              mat, [&](const hpfcg::hpf::DistPtr& nd) {
                inv_diag = hpfcg::hpf::redistribute(inv_diag, nd);
              });
          const auto res = sv::pcg_fused_dist<double>(
              op, prec, b, x,
              {.rel_tolerance = 1e-10,
               .track_residuals = true,
               .rebalance_every = 3},
              hook);
          if (p.rank() == 0) run.signature = res.residual_signature();
        });
        run.races = rt.racer()->race_count();
        return run;
      });

  EXPECT_TRUE(report.deterministic())
      << report.identical << "/" << report.perturbed.size() << " identical";
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.baseline.races, 0u);
}

TEST_P(RaceReplaySolverTest, MgPcgIsReplayInvariant) {
  // The multigrid V-cycle's message surface under adversarial delivery:
  // pipelined symGS half-sweeps (kSweepTag), grid-transfer injections
  // (kRestrictTag/kProlongTag), and halo exchanges on every level.  All of
  // its receives are directed per-source on fixed tags, so 20 perturbed
  // schedules must reproduce the baseline residual history bit for bit
  // with zero flagged races.
  const int np = GetParam();
  constexpr std::array<std::size_t, 3> dims{8, 8, 4};
  const auto a = sp::stencil27_3d(dims[0], dims[1], dims[2]);
  const auto b_full = sp::random_rhs(a.n_rows(), 83);

  const auto report = race::perturbed_replay(
      20, 0x519du + static_cast<std::uint64_t>(np),
      [&](std::uint64_t seed) {
        hpfcg::sparse::halo::ScopedEnable halo_on(true);
        race::ScopedEnable on;
        race::ScopedReplaySeed replay(seed);
        Runtime rt(np);
        race::ReplayRun run;
        rt.run([&](Process& p) {
          auto dist = share(Distribution::block(a.n_rows(), p.nprocs()));
          auto mat = sp::DistCsr<double>::row_aligned(p, a, dist);
          mat.prepare_halo();
          DistributedVector<double> b(p, dist), x(p, dist);
          b.from_global(b_full);
          sv::MgPreconditioner mg(p, mat, dims,
                                  {.smoother = sv::MgSmoother::kExactSymGs});
          const sv::DistOp<double> op =
              [&](const DistributedVector<double>& q,
                  DistributedVector<double>& out) { mat.matvec(q, out); };
          const auto res = sv::pcg_dist<double>(
              op, mg.prec(), b, x,
              {.rel_tolerance = 1e-10, .track_residuals = true});
          if (p.rank() == 0) run.signature = res.residual_signature();
        });
        run.races = rt.racer()->race_count();
        return run;
      });

  EXPECT_TRUE(report.deterministic())
      << report.identical << "/" << report.perturbed.size() << " identical";
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.baseline.races, 0u);
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, RaceReplaySolverTest,
                         ::testing::Values(2, 4, 8));

// ---- completeness: a divergent workload is always flagged --------------

TEST(RaceReplay, OrderDependentWorkloadDivergesOnlyFlagged) {
  // rank 0 folds two racing messages with a non-commutative combiner, so
  // the answer genuinely depends on the match order the replayer perturbs.
  // Every divergence from the baseline must be flagged — and since both
  // candidates are guaranteed in flight at match time, every run flags the
  // wildcard pair.
  constexpr int kNp = 3;
  const auto report = race::perturbed_replay(30, 99, [](std::uint64_t seed) {
    race::ScopedEnable on;
    race::ScopedReplaySeed replay(seed);
    hpfcg::check::ScopedEnable no_audit(false);  // races on purpose
    Runtime rt(kNp);
    race::ReplayRun run;
    rt.run([&run](Process& p) {
      if (p.rank() != 0) {
        p.send_value<std::uint64_t>(0, 31,
                                    static_cast<std::uint64_t>(p.rank()));
      } else {
        while (p.runtime().mailbox(0).pending() < 2) {
          std::this_thread::yield();
        }
        int src = -1;
        std::uint64_t acc = 0;
        for (int i = 0; i < kNp - 1; ++i) {
          // Non-commutative fold: order changes the result.
          acc = acc * 1000003u + p.recv_any<std::uint64_t>(31, src)[0];
        }
        run.signature = acc;
      }
    });
    run.races = rt.racer()->race_count();
    return run;
  });

  EXPECT_TRUE(report.complete()) << report.unflagged_divergences
                                 << " silent divergence(s)";
  EXPECT_EQ(report.baseline.races, 1u);
  for (const auto& run : report.perturbed) EXPECT_EQ(run.races, 1u);
  // With 30 uniform permutations of two candidates, at least one run picks
  // the other order (probability of all matching the baseline: 2^-30).
  EXPECT_GE(report.flagged_divergences, 1u);
}
