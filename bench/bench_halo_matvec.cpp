// Experiment HX — halo-exchange matvec vs the O(n) gather.
//
// The gather mode (HPFCG_HALO=0) gives the halo plan every foreign index
// as a ghost, so each sweep moves what replicating the whole operand
// vector moved: a bill that grows with n no matter how sparse the coupling
// is.  The default plan ghosts only the columns a rank's rows read, so the
// same executor ships only the boundary entries a neighbor actually reads,
//
//   t_halo ≈ (t_startup + t_hop) · neighbors + t_comm · 8 · boundary
//
// per rank, so for a stencil matrix the per-sweep traffic drops from
// O(n) to O(boundary).  This bench measures the steady-state marginal
// bytes per sweep in both modes on 2-D and 3-D Laplacians, checks the
// residual histories of the fused CG stay bit-identical when the halo
// path replaces the gather, and runs a mid-solve REDISTRIBUTE sweep to
// show the plan invalidate/rebuild leaves the answer untouched.
//
// Exit status is the CI gate: nonzero if the halo path saves less than
// 5x marginal bytes per sweep at NP in {4,8,16}, if any residual history
// differs from the gather path's at NP in {1,2,4,8}, or if the
// rebalance-hook solve diverges between the two modes.
//
//   ./bench_halo_matvec [--json out.json]

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/msg/cost_model.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/rebalance.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/util/cli.hpp"

namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
using hpfcg::msg::Stats;

namespace {

auto share(Distribution d) {
  return std::make_shared<const Distribution>(std::move(d));
}

double pval(std::size_t g) { return 0.1 * static_cast<double>(g % 13) - 0.5; }

/// Machine-wide bytes_sent after `sweeps` matvecs (plus the one-time build
/// and, on the halo path, the inspector's index exchange).
std::uint64_t bytes_for(const sp::Csr<double>& a, int np, bool halo,
                        int sweeps) {
  auto rt = hpfcg_bench::run_machine(np, [&](Process& proc) {
    sp::halo::ScopedEnable mode(halo);
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> p(proc, dist), q(proc, dist);
    p.set_from(pval);
    for (int s = 0; s < sweeps; ++s) mat.matvec(p, q);
  });
  Stats total;
  for (int r = 0; r < np; ++r) total += rt->stats(r);
  return total.bytes_sent;
}

struct SweepRow {
  std::string matrix;
  int np = 0;
  std::uint64_t gather_bpi = 0;  ///< marginal bytes per sweep, gather mode
  std::uint64_t halo_bpi = 0;    ///< marginal bytes per sweep, halo mode
  std::size_t ghosts = 0;        ///< machine-wide ghost entries
  std::size_t neighbors = 0;     ///< max over ranks of send peers
  double model_us = 0.0;         ///< max-rank modeled forward exchange
};

SweepRow measure_sweep(const std::string& name, const sp::Csr<double>& a,
                       int np) {
  SweepRow row;
  row.matrix = name;
  row.np = np;
  // Marginal cost of sweeps 2..5: the one-time build, caching fetch, and
  // halo-inspector traffic all cancel in the difference.
  row.gather_bpi = (bytes_for(a, np, false, 5) - bytes_for(a, np, false, 1)) / 4;
  row.halo_bpi = (bytes_for(a, np, true, 5) - bytes_for(a, np, true, 1)) / 4;

  std::atomic<std::size_t> ghosts{0};
  std::vector<std::size_t> peers(static_cast<std::size_t>(np), 0);
  std::vector<double> model(static_cast<std::size_t>(np), 0.0);
  const hpfcg::msg::CostParams params;
  const hpfcg::msg::CostModel cm(params, hpfcg::msg::Topology::kHypercube,
                                 np);
  auto rt = hpfcg_bench::run_machine(np, [&](Process& proc) {
    sp::halo::ScopedEnable mode(true);
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    mat.prepare_halo();
    const auto& plan = mat.halo_plan();
    ghosts += plan.n_ghosts();
    const auto r = static_cast<std::size_t>(proc.rank());
    peers[r] = plan.send_neighbors();
    model[r] = plan.modeled_exchange_seconds(cm, sizeof(double));
  });
  row.ghosts = ghosts.load();
  row.neighbors = *std::max_element(peers.begin(), peers.end());
  row.model_us = *std::max_element(model.begin(), model.end()) * 1e6;
  return row;
}

/// Residual signature + iteration count of one cg_fused_dist solve.
std::pair<std::uint64_t, std::size_t> fused_signature(
    const sp::Csr<double>& a, int np, bool halo) {
  const auto b_full = sp::random_rhs(a.n_rows(), 4242);
  std::atomic<std::uint64_t> sig{0};
  std::atomic<std::size_t> iters{0};
  auto rt = hpfcg_bench::run_machine(np, [&](Process& proc) {
    sp::halo::ScopedEnable mode(halo);
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(b_full);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const auto res = sv::cg_fused_dist<double>(
        op, b, x, {.rel_tolerance = 1e-10, .track_residuals = true});
    if (proc.rank() == 0) {
      sig = res.residual_signature();
      iters = res.iterations;
    }
  });
  return {sig.load(), iters.load()};
}

/// Residual signature of cg_dist with the measured rebalance hook firing
/// every `every` iterations — the mid-solve REDISTRIBUTE drops the plan
/// and prepare_halo() rebuilds it against the new cuts.
std::pair<std::uint64_t, std::size_t> rebalance_signature(
    const sp::Csr<double>& a, int np, bool halo, std::size_t every) {
  const auto b_full = sp::random_rhs(a.n_rows(), 777);
  std::atomic<std::uint64_t> sig{0};
  std::atomic<std::size_t> iters{0};
  auto rt = hpfcg_bench::run_machine(np, [&](Process& proc) {
    sp::halo::ScopedEnable mode(halo);
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(b_full);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const auto hook = sv::make_csr_rebalancer<double>(mat);
    const auto res = sv::cg_dist<double>(
        op, b, x,
        {.rel_tolerance = 1e-10, .track_residuals = true,
         .rebalance_every = every},
        hook);
    if (proc.rank() == 0) {
      sig = res.residual_signature();
      iters = res.iterations;
    }
  });
  return {sig.load(), iters.load()};
}

void append_json(std::ostringstream& os, const SweepRow& r, bool first) {
  if (!first) os << ",\n";
  os << "  {\"matrix\": \"" << r.matrix << "\", \"np\": " << r.np
     << ", \"gather_bytes_per_sweep\": " << r.gather_bpi
     << ", \"halo_bytes_per_sweep\": " << r.halo_bpi
     << ", \"ghost_entries\": " << r.ghosts
     << ", \"max_send_neighbors\": " << r.neighbors
     << ", \"model_us\": " << r.model_us << "}";
}

}  // namespace

int main(int argc, char** argv) {
  hpfcg::util::Cli cli(argc, argv);
  const std::string json_path =
      cli.get("json", "", "write rows as JSON to this path");
  if (cli.help_requested()) {
    std::cout << cli.help_text("bench_halo_matvec");
    return 0;
  }
  cli.finish();

  bool ok = true;

  // ---- HX1: marginal bytes per sweep, gather vs halo --------------------
  const auto lap2d = sp::laplacian_2d(64, 64);    // n = 4096, 5-point
  const auto lap3d = sp::laplacian_3d(16, 16, 16);  // n = 4096, 7-point
  hpfcg::util::Table sweep_table(
      "HX1 — steady-state matvec traffic (marginal machine bytes per "
      "sweep): O(n) gather vs O(boundary) halo exchange",
      {"matrix", "NP", "gather[B]", "halo[B]", "save", "ghosts",
       "max nbrs", "model[us]"});
  std::vector<SweepRow> rows;
  for (const auto* which : {"lap2d-64x64", "lap3d-16^3"}) {
    const auto& a = (which == std::string("lap2d-64x64")) ? lap2d : lap3d;
    for (const int np : {4, 8, 16}) {
      const SweepRow row = measure_sweep(which, a, np);
      rows.push_back(row);
      const double save =
          row.halo_bpi == 0
              ? 0.0
              : static_cast<double>(row.gather_bpi) /
                    static_cast<double>(row.halo_bpi);
      sweep_table.add_row(
          {row.matrix, std::to_string(np), std::to_string(row.gather_bpi),
           std::to_string(row.halo_bpi),
           hpfcg::util::fmt(save, 3) + "x", std::to_string(row.ghosts),
           std::to_string(row.neighbors),
           hpfcg::util::fmt(row.model_us, 2)});
      // Gate 1: the executor must save at least 5x per-sweep traffic.
      if (row.halo_bpi == 0 || save < 5.0) {
        std::cerr << row.matrix << " NP=" << np << ": halo saves only "
                  << save << "x (gather " << row.gather_bpi << "B, halo "
                  << row.halo_bpi << "B per sweep)\n";
        ok = false;
      }
    }
  }
  sweep_table.print(std::cout);

  // ---- HX2: the fused CG must not notice the executor swap --------------
  hpfcg::util::Table ident_table(
      "HX2 — cg_fused residual history, halo vs gather (lap2d 24x24): the "
      "forward executor keeps the per-row summation order, so histories "
      "are bit-identical",
      {"NP", "iters", "signature(gather)", "signature(halo)", "identical"});
  const auto small = sp::laplacian_2d(24, 24);
  for (const int np : {1, 2, 4, 8}) {
    const auto [gs, gi] = fused_signature(small, np, false);
    const auto [hs, hi] = fused_signature(small, np, true);
    const bool same = gs == hs && gi == hi;
    ident_table.add_row({std::to_string(np), std::to_string(gi),
                         std::to_string(gs), std::to_string(hs),
                         same ? "yes" : "NO"});
    // Gate 2: bit-identical residual history and iteration count.
    if (!same) {
      std::cerr << "NP=" << np << ": halo residual history diverged from "
                   "the gather path\n";
      ok = false;
    }
  }
  ident_table.print(std::cout);

  // ---- HX3: mid-solve REDISTRIBUTE drops and rebuilds the plan ----------
  hpfcg::util::Table rebal_table(
      "HX3 — cg_dist with the rebalance hook every 10 iterations "
      "(power-law n=512, skewed): the migrated matrix rebuilds its plan "
      "and the answer never moves",
      {"NP", "iters", "signature(gather)", "signature(halo)", "identical"});
  const auto skew = sp::powerlaw_spd(512, 4, 8, 96, 31);
  for (const int np : {2, 4, 8}) {
    const auto [gs, gi] = rebalance_signature(skew, np, false, 10);
    const auto [hs, hi] = rebalance_signature(skew, np, true, 10);
    const bool same = gs == hs && gi == hi;
    rebal_table.add_row({std::to_string(np), std::to_string(gi),
                         std::to_string(gs), std::to_string(hs),
                         same ? "yes" : "NO"});
    // Gate 3: the invalidate/rebuild cycle must be answer-preserving.
    if (!same) {
      std::cerr << "NP=" << np << ": rebalance-hook solve diverged "
                   "between halo and gather modes\n";
      ok = false;
    }
  }
  rebal_table.print(std::cout);

  std::cout << "\nReading: the inspector pays one index exchange at setup;\n"
               "every sweep after that ships only boundary entries to the\n"
               "handful of ranks that read them — 5-50x less traffic than\n"
               "replicating the operand vector, with residual histories\n"
               "bit-identical to the gather executor, even across a\n"
               "mid-solve REDISTRIBUTE.\n";

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      append_json(os, rows[i], i == 0);
    }
    os << "\n]\n";
    std::ofstream out(json_path);
    out << os.str();
    if (!out) {
      std::cerr << "failed to write " << json_path << "\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
