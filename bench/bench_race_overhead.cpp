// Experiment V3: the hpfcg::race layer must be a pure side channel and a
// cheap one.  Four gates, all enforced by the exit code:
//   1. identity — with detection on (replay off) every Stats counter and
//      modeled time is bit-identical to a detector-free run, per NP;
//   2. overhead — wall-clock ratio on/off for an NP=8 CG-shaped solve stays
//      under 1.10 (median over alternating off/on pairs, so host speed
//      drift cancels inside each pair);
//   3. reproducer — a seeded wildcard-receive race is flagged, naming both
//      racing source ranks;
//   4. replay — N perturbed replays (default 50, --runs) of cg_fused and
//      pcg_fused at NP in {2,4,8} reproduce bit-identical residual
//      histories with zero unflagged divergences.
// --json PATH writes the machine-readable report the CI job uploads.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/race/detector.hpp"
#include "hpfcg/race/race.hpp"
#include "hpfcg/race/replay.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/preconditioner.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"

namespace race = hpfcg::race;
namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::msg::Runtime;
using hpfcg::msg::Stats;
using hpfcg::msg::counters_identical;

namespace {

struct Run {
  Stats total;
  double makespan = 0.0;
  double wall_us = 0.0;
};

/// The CG-shaped sweep the detector instruments most densely: matvec
/// (allgather + shard reads) + fused dot + axpy + barrier per iteration.
void cg_shaped_body(Process& p, std::size_t n, int iters) {
  auto dist = std::make_shared<const Distribution>(
      Distribution::block(n, p.nprocs()));
  const auto a = sp::tridiagonal(n, 2.0, -1.0);
  auto A = sp::DistCsr<double>::row_aligned(p, a, dist);
  A.enable_caching();
  DistributedVector<double> x(p, dist), q(p, dist);
  x.set_from([](std::size_t g) { return static_cast<double>(g % 13); });
  for (int it = 0; it < iters; ++it) {
    A.matvec(x, q);
    const double d = hpfcg::hpf::dot_product(x, q);
    hpfcg::hpf::axpy(1.0 / (1.0 + d), q, x);
    p.barrier();
  }
}

Run measure(int np, bool race_on, std::size_t n = 2048, int iters = 8) {
  race::ScopedEnable mode(race_on);
  const auto t0 = std::chrono::steady_clock::now();
  auto rt = hpfcg_bench::run_machine(
      np, [&](Process& p) { cg_shaped_body(p, n, iters); });
  const auto t1 = std::chrono::steady_clock::now();
  Run r;
  r.total = rt->total_stats();
  r.makespan = rt->modeled_makespan();
  r.wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  return r;
}

/// On/off wall ratios of the overhead gate, sorted: one per pair of
/// back-to-back runs (4096 rows, 10 iterations), with the mode that goes
/// first swapped every pair.  Host speed drifts within a session, so two
/// separate blocks of runs (all off, then all on) can land in different
/// phases; inside one pair the drift cancels.
std::vector<double> pair_ratios(int np, int pairs) {
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    double wall_us[2] = {0.0, 0.0};  // indexed by race_on
    for (int j = 0; j < 2; ++j) {
      const bool on = (i + j) % 2 == 1;
      wall_us[on ? 1 : 0] = measure(np, on, 4096, 10).wall_us;
    }
    ratios.push_back(wall_us[0] > 0.0 ? wall_us[1] / wall_us[0] : 1.0);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios;
}

/// Seeded wildcard reproducer: two concurrent sends racing for one
/// any-source receive.  Returns the detector's JSON report; `ok` reflects
/// whether exactly the expected race was flagged naming ranks 1 and 2.
std::string wildcard_reproducer(bool& ok) {
  race::ScopedEnable on;
  Runtime rt(3);
  rt.run([](Process& p) {
    if (p.rank() == 1) p.send_value<int>(0, 7, 10);
    if (p.rank() == 2) p.send_value<int>(0, 7, 20);
    if (p.rank() == 0) {
      while (p.runtime().mailbox(0).pending() < 2) {
        std::this_thread::yield();
      }
      race::SiteScope site("bench reproducer recv");
      int src = -1;
      (void)p.recv_any<int>(7, src);
      (void)p.recv_any<int>(7, src);
    }
  });
  const auto records = rt.racer()->records();
  ok = records.size() == 1 &&
       records[0].kind == race::RaceKind::kWildcard &&
       records[0].src_a == 1 && records[0].src_b == 2;
  std::ostringstream os;
  rt.racer()->write_json(os);
  return os.str();
}

struct ReplayRow {
  std::string solver;
  int np = 0;
  race::ReplayReport report;
};

template <class SolveFn>
race::ReplayReport replay_solver(int np, int runs, std::uint64_t base_seed,
                                 const SolveFn& solve) {
  return race::perturbed_replay(runs, base_seed, [&](std::uint64_t seed) {
    race::ScopedEnable on;
    race::ScopedReplaySeed replay(seed);
    Runtime rt(np);
    race::ReplayRun run;
    rt.run([&](Process& p) {
      const std::uint64_t sig = solve(p);
      if (p.rank() == 0) run.signature = sig;
    });
    run.races = rt.racer()->race_count();
    return run;
  });
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 50;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  // ---- gate 1: counter identity per NP ---------------------------------
  hpfcg::util::Table table(
      "V3 — hpfcg::race overhead (CG-shaped sweep, n=2048, 8 iterations)",
      {"NP", "mode", "msgs", "bytes", "flops", "modeled[us]", "wall[us]",
       "counters identical?"});
  bool all_identical = true;
  for (const int np : hpfcg_bench::np_sweep()) {
    const Run off = measure(np, false);
    const Run on = measure(np, true);
    const bool same = counters_identical(off.total, on.total);
    all_identical = all_identical && same;
    table.add_row({std::to_string(np), "off",
                   hpfcg::util::fmt_count(off.total.messages_sent),
                   hpfcg::util::fmt_count(off.total.bytes_sent),
                   hpfcg::util::fmt_count(off.total.flops),
                   hpfcg::util::fmt(off.makespan * 1e6, 2),
                   hpfcg::util::fmt(off.wall_us, 0), "-"});
    table.add_row({std::to_string(np), "on",
                   hpfcg::util::fmt_count(on.total.messages_sent),
                   hpfcg::util::fmt_count(on.total.bytes_sent),
                   hpfcg::util::fmt_count(on.total.flops),
                   hpfcg::util::fmt(on.makespan * 1e6, 2),
                   hpfcg::util::fmt(on.wall_us, 0), same ? "yes" : "NO"});
  }
  table.print(std::cout);

  // ---- gate 2: wall overhead at NP=8 -----------------------------------
  double ratio = 1.0;
  bool overhead_ok = true;
  if (race::kCompiled) {
    const std::vector<double> ratios = pair_ratios(8, 15);
    ratio = ratios[ratios.size() / 2];
    overhead_ok = ratio < 1.10;
    std::cout << std::fixed << std::setprecision(4)
              << "\nNP=8 CG solve wall, on/off over 15 alternating pairs: "
                 "median ratio "
              << ratio << " (min " << ratios.front() << ", max "
              << ratios.back() << "; gate < 1.10: "
              << (overhead_ok ? "pass" : "FAIL") << ")\n"
              << std::defaultfloat << std::setprecision(6);
  } else {
    std::cout << "\n(race layer compiled out: both modes ran the bare "
                 "runtime — the hooks cost literally nothing)\n";
  }

  // ---- gate 3: seeded wildcard reproducer ------------------------------
  bool reproducer_ok = true;
  std::string reproducer_json = "{}";
  if (race::kCompiled) {
    reproducer_json = wildcard_reproducer(reproducer_ok);
    std::cout << "\nWildcard reproducer (2 concurrent senders, 1 any-source "
                 "receiver): "
              << (reproducer_ok ? "flagged naming ranks 1 and 2"
                                : "NOT FLAGGED — detector bug")
              << "\n";
  }

  // ---- gate 4: perturbed replay of the fused solvers -------------------
  std::vector<ReplayRow> rows;
  bool replay_ok = true;
  if (race::kCompiled && runs > 0) {
    const auto a = sp::laplacian_2d(7, 9);
    const auto b_full = sp::random_rhs(a.n_rows(), 23);
    const auto spd = sp::random_spd(48, 5, 91);
    const auto spd_rhs = sp::random_rhs(spd.n_rows(), 37);
    const auto spd_diag = spd.diagonal();

    hpfcg::util::Table rt_table(
        "Perturbed replay (" + std::to_string(runs) + " adversarial "
        "schedules per cell; solver results must be bit-identical)",
        {"solver", "NP", "identical", "flagged", "unflagged", "verdict"});
    for (const int np : {2, 4, 8}) {
      ReplayRow cg{"cg_fused", np,
                   replay_solver(np, runs, 0x5eedu + np, [&](Process& p) {
                     auto dist = std::make_shared<const Distribution>(
                         Distribution::block(a.n_rows(), p.nprocs()));
                     auto mat = sp::DistCsr<double>::row_aligned(p, a, dist);
                     DistributedVector<double> b(p, dist), x(p, dist);
                     b.from_global(b_full);
                     const sv::DistOp<double> op =
                         [&](const DistributedVector<double>& q,
                             DistributedVector<double>& out) {
                           mat.matvec(q, out);
                         };
                     return sv::cg_fused_dist<double>(
                                op, b, x,
                                {.rel_tolerance = 1e-10,
                                 .track_residuals = true})
                         .residual_signature();
                   })};
      ReplayRow pcg{"pcg_fused", np,
                    replay_solver(np, runs, 0xacedu + np, [&](Process& p) {
                      auto dist = std::make_shared<const Distribution>(
                          Distribution::block(spd.n_rows(), p.nprocs()));
                      auto mat =
                          sp::DistCsr<double>::row_aligned(p, spd, dist);
                      DistributedVector<double> b(p, dist), x(p, dist),
                          inv_diag(p, dist);
                      b.from_global(spd_rhs);
                      inv_diag.set_from(
                          [&](std::size_t g) { return 1.0 / spd_diag[g]; });
                      const sv::DistOp<double> op =
                          [&](const DistributedVector<double>& q,
                              DistributedVector<double>& out) {
                            mat.matvec(q, out);
                          };
                      return sv::pcg_fused_dist<double>(
                                 op, sv::jacobi_dist(inv_diag), b, x,
                                 {.rel_tolerance = 1e-10,
                                  .track_residuals = true})
                          .residual_signature();
                    })};
      for (const auto& row : {cg, pcg}) {
        const bool ok = row.report.deterministic() && row.report.complete();
        replay_ok = replay_ok && ok;
        rt_table.add_row({row.solver, std::to_string(np),
                          std::to_string(row.report.identical),
                          std::to_string(row.report.flagged_divergences),
                          std::to_string(row.report.unflagged_divergences),
                          ok ? "bit-identical" : "FAIL"});
        rows.push_back(row);
      }
    }
    std::cout << '\n';
    rt_table.print(std::cout);
  }

  const bool ok =
      all_identical && overhead_ok && reproducer_ok && replay_ok;

  if (!json_path.empty()) {
    std::ofstream js(json_path);
    js << "{\"identity_ok\": " << (all_identical ? "true" : "false")
       << ", \"overhead_ratio\": " << ratio
       << ", \"overhead_ok\": " << (overhead_ok ? "true" : "false")
       << ", \"reproducer_ok\": " << (reproducer_ok ? "true" : "false")
       << ", \"reproducer\": " << reproducer_json << ", \"replay\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) js << ", ";
      js << "{\"solver\": \"" << rows[i].solver
         << "\", \"np\": " << rows[i].np
         << ", \"runs\": " << rows[i].report.perturbed.size()
         << ", \"identical\": " << rows[i].report.identical
         << ", \"flagged\": " << rows[i].report.flagged_divergences
         << ", \"unflagged\": " << rows[i].report.unflagged_divergences
         << "}";
    }
    js << "], \"ok\": " << (ok ? "true" : "false") << "}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }

  std::cout << "\nReading: the detector is a side channel (counters and\n"
               "modeled times bit-identical), its wall cost at NP=8 is\n"
               "under the 10% gate, the seeded wildcard race is flagged\n"
               "with both source ranks named, and every adversarial\n"
               "delivery schedule reproduced the solvers' residual\n"
               "histories bit-for-bit.\n";
  return ok ? 0 : 1;
}
