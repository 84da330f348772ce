// Experiment RP — opt-in bit-reproducible reductions (hpfcg::repro).
//
// Floating-point addition is not associative, so the plain solvers round
// differently at every NP and after every mid-solve REDISTRIBUTE: the
// same problem returns different residual-history bits depending on the
// machine size and the rebalance schedule.  With HPFCG_REPRO=1 every
// sum-class reduction routes through an exact fixed-point
// superaccumulator, merged limb-wise across the tree (associative) and
// rounded exactly once — so the whole trajectory becomes a pure function
// of the problem.
//
// Exit status is the CI gate: nonzero if
//   RP1  repro-mode fused CG / PCG residual histories differ anywhere
//        across NP in {1,2,4,8};
//   RP2  a mid-solve rebalance (any cadence, any NP) moves the repro-mode
//        history by even one bit;
//   RP3  any of N perturbed replays (default 50, --runs) of the repro
//        pcg_fused with rebalancing diverges un-flagged;
//   RP4  the repro-mode wall-clock overhead at NP=8 on a 2-D Laplacian
//        reaches 2x the plain path;
//   RP5  with the mode off, Stats or results differ from an untouched
//        run (the opt-in must cost nothing until enabled).
// --json PATH writes the machine-readable report the CI job uploads.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/hpf/redistribute.hpp"
#include "hpfcg/msg/cost_model.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/race/race.hpp"
#include "hpfcg/race/replay.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/repro/superacc.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/rebalance.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/util/cli.hpp"

namespace race = hpfcg::race;
namespace repro = hpfcg::repro;
namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::msg::Runtime;
using hpfcg::msg::Stats;
using hpfcg::msg::counters_identical;

namespace {

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

struct Solve {
  std::uint64_t signature = 0;
  std::size_t iterations = 0;
  Stats total;
  double wall_us = 0.0;
};

/// One fused CG (prec == false) or Jacobi-PCG (prec == true) solve with an
/// optional rebalance cadence; rank 0's residual signature plus the
/// machine-wide Stats and the wall time of the whole machine run.
Solve run_solve(const sp::Csr<double>& a, const std::vector<double>& b_full,
                int np, bool prec, std::size_t rebalance_every) {
  Solve out;
  const auto diag = a.diagonal();
  const auto t0 = std::chrono::steady_clock::now();
  auto rt = hpfcg_bench::run_machine(np, [&](Process& proc) {
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist),
        inv_diag(proc, dist);
    b.from_global(b_full);
    inv_diag.set_from([&](std::size_t g) { return 1.0 / diag[g]; });
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const sv::SolveOptions opts{.rel_tolerance = 1e-10,
                                .track_residuals = true,
                                .rebalance_every = rebalance_every};
    sv::SolveResult res;
    if (prec) {
      const sv::DistPrec<double> pc =
          [&inv_diag](const DistributedVector<double>& r,
                      DistributedVector<double>& z) {
            hpfcg::hpf::hadamard(inv_diag, r, z);
          };
      const auto hook = sv::make_csr_rebalancer<double>(
          mat, [&](const hpfcg::hpf::DistPtr& nd) {
            inv_diag = hpfcg::hpf::redistribute(inv_diag, nd);
          });
      res = sv::pcg_fused_dist<double>(
          op, pc, b, x, opts,
          rebalance_every == 0 ? sv::RebalanceHook{} : hook);
    } else {
      const auto hook = sv::make_csr_rebalancer<double>(mat);
      res = sv::cg_fused_dist<double>(
          op, b, x, opts,
          rebalance_every == 0 ? sv::RebalanceHook{} : hook);
    }
    if (proc.rank() == 0) {
      out.signature = res.residual_signature();
      out.iterations = res.iterations;
    }
  });
  const auto t1 = std::chrono::steady_clock::now();
  out.total = rt->total_stats();
  out.wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  return out;
}

/// Best-of-N wall time (minimum sheds scheduler noise).
double best_wall_us(const sp::Csr<double>& a,
                    const std::vector<double>& b_full, int np, bool on,
                    int reps) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    repro::ScopedEnable mode(on);
    const double w = run_solve(a, b_full, np, false, 0).wall_us;
    if (i == 0 || w < best) best = w;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  hpfcg::util::Cli cli(argc, argv);
  const std::string json_path =
      cli.get("json", "", "write the gate report as JSON to this path");
  const int runs = std::stoi(
      cli.get("runs", "50", "perturbed replays per cell in the RP3 gate"));
  if (cli.help_requested()) {
    std::cout << cli.help_text("bench_repro");
    return 0;
  }
  cli.finish();

  if (!repro::kCompiled) {
    std::cout << "hpfcg::repro compiled out (HPFCG_REPRO=OFF): nothing to "
                 "gate.\n";
    return 0;
  }

  bool ok = true;

  // ---- RP1: NP-invariance of the repro-mode fused solvers ---------------
  const auto lap = sp::laplacian_2d(24, 24);
  const auto lap_rhs = sp::random_rhs(lap.n_rows(), 4242);
  const auto spd = sp::random_spd(48, 5, 91);
  const auto spd_rhs = sp::random_rhs(spd.n_rows(), 37);
  hpfcg::util::Table np_table(
      "RP1 — repro-mode residual histories across machine sizes (fused CG "
      "on lap2d 24x24, Jacobi-PCG on random SPD n=48): every NP must "
      "round to the same bits as NP=1",
      {"solver", "NP", "iters", "signature", "identical"});
  {
    repro::ScopedEnable on;
    const Solve cg_ref = run_solve(lap, lap_rhs, 1, false, 0);
    const Solve pcg_ref = run_solve(spd, spd_rhs, 1, true, 0);
    np_table.add_row({"cg_fused", "1", std::to_string(cg_ref.iterations),
                      std::to_string(cg_ref.signature), "ref"});
    for (const int np : {2, 4, 8}) {
      const Solve s = run_solve(lap, lap_rhs, np, false, 0);
      const bool same =
          s.signature == cg_ref.signature && s.iterations == cg_ref.iterations;
      np_table.add_row({"cg_fused", std::to_string(np),
                        std::to_string(s.iterations),
                        std::to_string(s.signature), same ? "yes" : "NO"});
      if (!same) {
        std::cerr << "RP1: cg_fused NP=" << np << " drifted from NP=1\n";
        ok = false;
      }
    }
    np_table.add_row({"pcg_fused", "1", std::to_string(pcg_ref.iterations),
                      std::to_string(pcg_ref.signature), "ref"});
    for (const int np : {2, 4, 8}) {
      const Solve s = run_solve(spd, spd_rhs, np, true, 0);
      const bool same = s.signature == pcg_ref.signature &&
                        s.iterations == pcg_ref.iterations;
      np_table.add_row({"pcg_fused", std::to_string(np),
                        std::to_string(s.iterations),
                        std::to_string(s.signature), same ? "yes" : "NO"});
      if (!same) {
        std::cerr << "RP1: pcg_fused NP=" << np << " drifted from NP=1\n";
        ok = false;
      }
    }
  }
  np_table.print(std::cout);

  // ---- RP2: rebalance-schedule invariance -------------------------------
  const auto skew = sp::powerlaw_spd(96, 3, 5, 48, 13);
  const auto skew_rhs = sp::random_rhs(skew.n_rows(), 5);
  hpfcg::util::Table rb_table(
      "RP2 — repro-mode pcg_fused under mid-solve REDISTRIBUTE (power-law "
      "n=96, skewed): any cadence on any NP must match the "
      "never-rebalanced NP=4 bits",
      {"NP", "rebalance every", "iters", "signature", "identical"});
  {
    repro::ScopedEnable on;
    const Solve ref = run_solve(skew, skew_rhs, 4, true, 0);
    rb_table.add_row({"4", "never", std::to_string(ref.iterations),
                      std::to_string(ref.signature), "ref"});
    const std::pair<int, std::size_t> cells[] = {
        {4, 3}, {4, 5}, {2, 4}, {8, 4}};
    for (const auto& [np, every] : cells) {
      const Solve s = run_solve(skew, skew_rhs, np, true, every);
      const bool same =
          s.signature == ref.signature && s.iterations == ref.iterations;
      rb_table.add_row({std::to_string(np), std::to_string(every),
                        std::to_string(s.iterations),
                        std::to_string(s.signature), same ? "yes" : "NO"});
      if (!same) {
        std::cerr << "RP2: NP=" << np << " every=" << every
                  << " drifted from the never-rebalanced run\n";
        ok = false;
      }
    }
  }
  rb_table.print(std::cout);

  // ---- RP3: perturbed replay of the hardest schedule --------------------
  struct ReplayRow {
    int np = 0;
    race::ReplayReport report;
  };
  std::vector<ReplayRow> replay_rows;
  bool replay_ok = true;
  if (race::kCompiled && runs > 0) {
    hpfcg::util::Table rt_table(
        "RP3 — " + std::to_string(runs) +
            " perturbed replays per NP of the repro pcg_fused with "
            "rebalancing every 3 iterations: adversarial delivery must "
            "never move a bit",
        {"NP", "identical", "flagged", "unflagged", "verdict"});
    const auto diag = skew.diagonal();
    for (const int np : {2, 4, 8}) {
      ReplayRow row;
      row.np = np;
      row.report = race::perturbed_replay(
          runs, 0x9e70u + static_cast<std::uint64_t>(np),
          [&](std::uint64_t seed) {
            repro::ScopedEnable repro_on;
            race::ScopedEnable on;
            race::ScopedReplaySeed replay(seed);
            Runtime rt(np);
            race::ReplayRun run;
            rt.run([&](Process& p) {
              auto dist = share(Distribution::block(skew.n_rows(),
                                                    p.nprocs()));
              auto mat = sp::DistCsr<double>::row_aligned(p, skew, dist);
              DistributedVector<double> b(p, dist), x(p, dist),
                  inv_diag(p, dist);
              b.from_global(skew_rhs);
              inv_diag.set_from(
                  [&](std::size_t g) { return 1.0 / diag[g]; });
              const sv::DistOp<double> op =
                  [&](const DistributedVector<double>& q,
                      DistributedVector<double>& out) {
                    mat.matvec(q, out);
                  };
              const sv::DistPrec<double> pc =
                  [&inv_diag](const DistributedVector<double>& r,
                              DistributedVector<double>& z) {
                    hpfcg::hpf::hadamard(inv_diag, r, z);
                  };
              const auto hook = sv::make_csr_rebalancer<double>(
                  mat, [&](const hpfcg::hpf::DistPtr& nd) {
                    inv_diag = hpfcg::hpf::redistribute(inv_diag, nd);
                  });
              const auto res = sv::pcg_fused_dist<double>(
                  op, pc, b, x,
                  {.rel_tolerance = 1e-10,
                   .track_residuals = true,
                   .rebalance_every = 3},
                  hook);
              if (p.rank() == 0) run.signature = res.residual_signature();
            });
            run.races = rt.racer()->race_count();
            return run;
          });
      const bool cell_ok =
          row.report.deterministic() && row.report.complete();
      replay_ok = replay_ok && cell_ok;
      rt_table.add_row({std::to_string(np),
                        std::to_string(row.report.identical),
                        std::to_string(row.report.flagged_divergences),
                        std::to_string(row.report.unflagged_divergences),
                        cell_ok ? "bit-identical" : "FAIL"});
      replay_rows.push_back(row);
    }
    std::cout << '\n';
    rt_table.print(std::cout);
    if (!replay_ok) {
      std::cerr << "RP3: a perturbed replay diverged\n";
      ok = false;
    }
  } else {
    std::cout << "\n(RP3 skipped: race layer compiled out or --runs 0)\n";
  }

  // ---- RP4: overhead at NP=8 on a 2-D Laplacian -------------------------
  const auto big = sp::laplacian_2d(64, 64);  // n = 4096
  const auto big_rhs = sp::random_rhs(big.n_rows(), 23);
  const double off_us = best_wall_us(big, big_rhs, 8, false, 5);
  const double on_us = best_wall_us(big, big_rhs, 8, true, 5);
  const double ratio = off_us > 0.0 ? on_us / off_us : 1.0;
  const bool overhead_ok = ratio < 2.0;
  Stats on_stats;
  {
    repro::ScopedEnable on;
    on_stats = run_solve(big, big_rhs, 8, false, 0).total;
  }
  const hpfcg::msg::CostModel cm({}, hpfcg::msg::Topology::kHypercube, 8);
  const double model_us =
      cm.repro_allreduce_time(2, sizeof(repro::Superacc),
                              repro::Superacc::kMergeFlops) *
      1e6;
  std::cout << "\nRP4 — NP=8 cg_fused wall on lap2d 64x64 (best of 5): "
            << "plain " << hpfcg::util::fmt(off_us, 0) << " us, repro "
            << hpfcg::util::fmt(on_us, 0) << " us, ratio "
            << hpfcg::util::fmt(ratio, 3) << " (gate < 2.0: "
            << (overhead_ok ? "pass" : "FAIL") << ")\n"
            << "     superacc: " << repro::Superacc::kLimbs << " limbs, "
            << sizeof(repro::Superacc) << " B on the wire; "
            << on_stats.repro_reductions << " repro reductions carrying "
            << on_stats.repro_values << " values; modeled exact 2-wide "
            << "allreduce " << hpfcg::util::fmt(model_us, 2) << " us\n";
  if (!overhead_ok) {
    std::cerr << "RP4: repro overhead " << ratio << "x exceeds the 2x gate\n";
    ok = false;
  }

  // ---- RP5: the opt-in must cost nothing until enabled ------------------
  bool off_ok = true;
  {
    repro::ScopedEnable off(false);
    const Solve a1 = run_solve(lap, lap_rhs, 8, false, 0);
    const Solve a2 = run_solve(lap, lap_rhs, 8, false, 0);
    off_ok = a1.signature == a2.signature &&
             a1.iterations == a2.iterations &&
             counters_identical(a1.total, a2.total) &&
             a1.total.repro_reductions == 0 && a1.total.repro_values == 0;
  }
  // And an untouched run (no scope at all, default-off env) matches the
  // explicitly-disabled one.
  {
    const Solve plain = run_solve(lap, lap_rhs, 8, false, 0);
    repro::ScopedEnable off(false);
    const Solve scoped = run_solve(lap, lap_rhs, 8, false, 0);
    off_ok = off_ok && plain.signature == scoped.signature &&
             counters_identical(plain.total, scoped.total);
  }
  std::cout << "\nRP5 — mode off: Stats and results bit-identical to an "
               "untouched run, zero repro counters ("
            << (off_ok ? "pass" : "FAIL") << ")\n";
  if (!off_ok) {
    std::cerr << "RP5: the disabled mode perturbed Stats or results\n";
    ok = false;
  }

  std::cout << "\nReading: exact superaccumulator merges make the fused\n"
               "solvers' residual histories a pure function of the problem\n"
               "— the same bits at NP=1 and NP=8, before and after a\n"
               "mid-solve REDISTRIBUTE, under 50 adversarial delivery\n"
               "schedules — for under 2x wall cost on a 4096-row Laplacian,\n"
               "and for free when the mode stays off.\n";

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"overhead_ratio\": " << ratio
       << ", \"overhead_ok\": " << (overhead_ok ? "true" : "false")
       << ", \"off_mode_ok\": " << (off_ok ? "true" : "false")
       << ", \"replay\": [";
    for (std::size_t i = 0; i < replay_rows.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"np\": " << replay_rows[i].np
         << ", \"runs\": " << replay_rows[i].report.perturbed.size()
         << ", \"identical\": " << replay_rows[i].report.identical
         << ", \"flagged\": " << replay_rows[i].report.flagged_divergences
         << ", \"unflagged\": "
         << replay_rows[i].report.unflagged_divergences << "}";
    }
    os << "], \"ok\": " << (ok ? "true" : "false") << "}\n";
    std::ofstream out(json_path);
    out << os.str();
    if (!out) {
      std::cerr << "failed to write " << json_path << "\n";
      ok = false;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
