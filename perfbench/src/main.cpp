// perfbench — wall-clock benchmark of fused CG and MG-PCG.
//
//   perfbench --workload cg2d-np4|mg27-np4|mg27-np1 --seed N --seconds S
//             --trace 0|1
//
// One caller runs solves back to back on one set-up problem (a closed loop
// of one client), each solve with a fresh seeded right-hand side, x0 = 0
// and relative tolerance 1e-8, and checks every solution against the input
// matrix independently of the solver.  --trace 0 times the default program
// (every side channel off) and prints the end-to-end metrics; --trace 1
// runs a fixed set of solves untraced and then traced, splits each
// iteration's wall time into exclusive time per layer, times layer
// functions directly on the workload's data, measures the machine ceilings
// in the same binary, and prints the per-layer metrics.  The last line of
// stdout is one JSON object; perfbench/README.md defines every metric.

#include <sys/resource.h>

#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/hpf/distribution.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/msg/runtime.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/multigrid.hpp"
#include "hpfcg/sparse/csr.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/trace/session.hpp"
#include "hpfcg/trace/trace.hpp"
#include "hpfcg/util/table.hpp"
#include "perfbench.hpp"

namespace pb = perfbench;
namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;
using hpfcg::hpf::Distribution;
using hpfcg::msg::Process;
using hpfcg::msg::Stats;
using pb::Clock;
using DVec = hpfcg::hpf::DistributedVector<double>;

namespace {

struct Workload {
  const char* name;
  int np;
  bool mg;  ///< pcg_dist + MgPreconditioner on stencil27_3d, else cg_fused_dist
  std::array<std::size_t, 3> dims;  ///< grid; dims[2] == 1 for the 2-D case
  int traced_solves;                ///< fixed solve count of a --trace 1 run
};

constexpr Workload kWorkloads[] = {
    {"cg2d-np4", 4, false, {128, 128, 1}, 8},
    {"mg27-np4", 4, true, {48, 48, 48}, 3},
    {"mg27-np1", 1, true, {48, 48, 48}, 3},
};

constexpr double kTol = 1e-8;
constexpr double kResidualSlack = 10.0;  ///< true residual may be 10x tol
// setup_s is the median of at least kMinSetupReps set-ups and of as many
// more as fit in kSetupSeconds, up to kMaxSetupReps: a set-up of the small
// workload takes well under a millisecond and is dominated by thread
// handoffs, so it needs many samples to be steady.
constexpr int kMinSetupReps = 9;
constexpr int kMaxSetupReps = 201;
constexpr double kSetupSeconds = 1.0;
constexpr int kMinTimedSolves = 5;
constexpr std::size_t kRingSpans = std::size_t{1} << 18;

struct Args {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Right-hand side k of the run seeded `seed` (splitmix64 of both).
std::uint64_t rhs_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + k + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The Stats counters a solve must repeat exactly, summed over ranks.
struct Counts {
  std::uint64_t messages = 0;  ///< sent
  std::uint64_t bytes = 0;     ///< sent
  std::uint64_t reductions = 0;
  std::uint64_t reduction_values = 0;
  std::uint64_t flops = 0;
  std::uint64_t halo_msgs = 0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t halo_fallbacks = 0;
  std::uint64_t envelopes_inline = 0;
  std::uint64_t envelopes_buffered = 0;  ///< pooled + heap
  std::uint64_t envelopes_heap = 0;      ///< scheduling-dependent share
  std::uint64_t mg_level_sweeps = 0;

  static Counts between(const Stats& a, const Stats& b) {
    return {a.messages_sent - b.messages_sent,
            a.bytes_sent - b.bytes_sent,
            a.reductions - b.reductions,
            a.reduction_values - b.reduction_values,
            a.flops - b.flops,
            a.halo_msgs - b.halo_msgs,
            a.halo_bytes - b.halo_bytes,
            a.halo_fallbacks - b.halo_fallbacks,
            a.envelopes_inline - b.envelopes_inline,
            (a.envelopes_pooled + a.envelopes_heap) -
                (b.envelopes_pooled + b.envelopes_heap),
            a.envelopes_heap - b.envelopes_heap,
            a.mg_level_sweeps - b.mg_level_sweeps};
  }

  Counts& operator+=(const Counts& o) {
    messages += o.messages;
    bytes += o.bytes;
    reductions += o.reductions;
    reduction_values += o.reduction_values;
    flops += o.flops;
    halo_msgs += o.halo_msgs;
    halo_bytes += o.halo_bytes;
    halo_fallbacks += o.halo_fallbacks;
    envelopes_inline += o.envelopes_inline;
    envelopes_buffered += o.envelopes_buffered;
    envelopes_heap += o.envelopes_heap;
    mg_level_sweeps += o.mg_level_sweeps;
    return *this;
  }

  /// Every counter except the heap share of the envelopes, whose split from
  /// the pooled share depends on thread scheduling (see msg/stats.hpp).
  [[nodiscard]] bool same_exact(const Counts& o) const {
    return messages == o.messages && bytes == o.bytes &&
           reductions == o.reductions &&
           reduction_values == o.reduction_values && flops == o.flops &&
           halo_msgs == o.halo_msgs && halo_bytes == o.halo_bytes &&
           halo_fallbacks == o.halo_fallbacks &&
           envelopes_inline == o.envelopes_inline &&
           envelopes_buffered == o.envelopes_buffered &&
           mg_level_sweeps == o.mg_level_sweeps;
  }
};

struct SolveRecord {
  double wall_s = 0.0;
  std::size_t iterations = 0;
  std::uint64_t signature = 0;
  double true_rel_res = 0.0;
  bool ok = false;
  Counts total;
  double modeled_max_s = 0.0;       ///< max over ranks of modeled time
  double modeled_wait_max_s = 0.0;  ///< max over ranks of modeled wait
};

/// Same inputs, same trajectory: iterations, residual signature and every
/// exact counter.
bool same_solve(const SolveRecord& a, const SolveRecord& b) {
  return a.iterations == b.iterations && a.signature == b.signature &&
         a.total.same_exact(b.total);
}

enum class Phase {
  kSetupOnly,  ///< build the problem on the machine, then return
  kTimed,      ///< warm-up, solves for --seconds, repeat of the warm-up rhs
  kFixed,      ///< warm-up, traced_solves solves, direct layer timings
};

/// Direct timings of layer functions on the workload's data (rank 0's
/// clock, collectives bracketed by barriers on all ranks).
struct Direct {
  double dist_eq_us = 0.0;
  double gs_sweep_us = 0.0;
  double restrict_us = 0.0;
  double prolong_us = 0.0;
};

/// State the rank threads share.  Rank 0 writes the scalars; every rank
/// writes only its own slot of the per-rank vectors; std::barrier orders
/// the two.
struct Shared {
  Shared(const Workload& wl, const sp::Csr<double>& mat, const Args& a)
      : w(wl),
        a(mat),
        args(a),
        sync(wl.np),
        x_full(mat.n_rows()),
        rank_counts(static_cast<std::size_t>(wl.np)),
        rank_modeled(static_cast<std::size_t>(wl.np)),
        rank_wait(static_cast<std::size_t>(wl.np)),
        rank_spmv_bytes(static_cast<std::size_t>(wl.np)),
        rank_gs_bytes(static_cast<std::size_t>(wl.np)),
        layers(static_cast<std::size_t>(wl.np)) {}

  const Workload& w;
  const sp::Csr<double>& a;
  const Args& args;
  std::barrier<> sync;
  std::vector<double> b_full;
  std::vector<double> x_full;
  std::vector<Counts> rank_counts;
  std::vector<double> rank_modeled;
  std::vector<double> rank_wait;
  std::vector<double> rank_spmv_bytes;  ///< computed bytes of one matvec
  std::vector<double> rank_gs_bytes;    ///< computed bytes of one half sweep
  std::vector<pb::LayerAccum> layers;
  std::vector<SolveRecord> solves;
  double distribute_s = 0.0;
  double halo_plan_s = 0.0;
  double mg_setup_s = 0.0;
  Direct direct;
  bool stop = false;
};

/// ||b - A x|| / ||b|| from the input Csr, serially on rank 0.  The
/// solver's own residual is a recurrence that can drift; this one cannot.
SolveRecord evaluate(Shared& sh, const sv::SolveResult& res, double wall) {
  SolveRecord r;
  r.wall_s = wall;
  r.iterations = res.iterations;
  r.signature = res.residual_signature();
  for (int k = 0; k < sh.w.np; ++k) {
    const auto uk = static_cast<std::size_t>(k);
    r.total += sh.rank_counts[uk];
    r.modeled_max_s = std::max(r.modeled_max_s, sh.rank_modeled[uk]);
    r.modeled_wait_max_s = std::max(r.modeled_wait_max_s, sh.rank_wait[uk]);
  }
  const auto& rp = sh.a.row_ptr();
  const auto& ci = sh.a.col_idx();
  const auto& va = sh.a.values();
  double rr = 0.0;
  double bb = 0.0;
  bool finite = true;
  for (std::size_t i = 0; i < sh.a.n_rows(); ++i) {
    double s = sh.b_full[i];
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) s -= va[k] * sh.x_full[ci[k]];
    rr += s * s;
    bb += sh.b_full[i] * sh.b_full[i];
    finite = finite && std::isfinite(sh.x_full[i]);
  }
  r.true_rel_res = std::sqrt(rr) / std::sqrt(bb);
  r.ok = res.converged && !res.breakdown && finite &&
         std::isfinite(res.relative_residual) &&
         std::isfinite(r.true_rel_res) &&
         r.true_rel_res <= kResidualSlack * kTol &&
         r.total.halo_fallbacks == 0;
  return r;
}

/// Median µs per call of `fn` (rank-local, no communication).
double time_local_us(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  const double once = std::max(pb::seconds_between(t0, Clock::now()), 1e-7);
  const int batch = std::max(1, static_cast<int>(5e-3 / once));
  std::vector<double> us;
  for (int b = 0; b < 9; ++b) {
    const auto t = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    us.push_back(pb::seconds_between(t, Clock::now()) * 1e6 / batch);
  }
  return pb::median(us);
}

void rank_main(Process& proc, Shared& sh, Phase phase) {
  const Workload& w = sh.w;
  const int me = proc.rank();
  const bool lead = me == 0;
  const std::size_t n = sh.a.n_rows();
  auto& sync = sh.sync;

  // ---- set-up, each step bracketed by barriers on all ranks -------------
  sync.arrive_and_wait();
  Clock::time_point mark = Clock::now();
  const auto lap = [&](double& out) {
    sync.arrive_and_wait();
    if (!lead) return;
    const auto now = Clock::now();
    out = pb::seconds_between(mark, now);
    mark = now;
  };
  const auto dist = std::make_shared<const Distribution>(
      Distribution::block(n, proc.nprocs()));
  auto mat = sp::DistCsr<double>::row_aligned(proc, sh.a, dist);
  mat.enable_caching();
  lap(sh.distribute_s);
  mat.prepare_halo();
  lap(sh.halo_plan_s);
  std::unique_ptr<sv::MgPreconditioner> mg;
  if (w.mg) mg = std::make_unique<sv::MgPreconditioner>(proc, mat, w.dims);
  lap(sh.mg_setup_s);
  if (phase == Phase::kSetupOnly) return;

  // ---- solves -----------------------------------------------------------
  hpfcg::trace::RankTrace* const ring = proc.tracer_rank();
  std::vector<pb::ClosureSpan> closures;
  closures.reserve(8192);
  const auto timed = [&](pb::Layer layer, const auto& body) {
    if (ring == nullptr) {
      body();
      return;
    }
    pb::ClosureSpan c;
    c.layer = layer;
    c.t0_ns = ring->now_ns();
    body();
    c.t1_ns = ring->now_ns();
    closures.push_back(c);
  };
  const sv::DistOp<double> op = [&](const DVec& p, DVec& q) {
    timed(pb::kSpmv, [&] { mat.matvec(p, q); });
  };
  sv::DistPrec<double> prec;
  if (mg) {
    prec = [&](const DVec& r, DVec& z) {
      timed(pb::kPrecond, [&] { mg->apply(r, z); });
    };
  }
  DVec b(proc, dist);
  DVec x(proc, dist);
  const sv::SolveOptions opts{.max_iterations = 5000, .rel_tolerance = kTol};
  const std::size_t lo = dist->local_range(me).first;

  const auto solve = [&](std::uint64_t k) {
    if (lead) sh.b_full = sp::random_rhs(n, rhs_seed(sh.args.seed, k));
    sync.arrive_and_wait();
    b.from_global(sh.b_full);
    std::fill(x.local().begin(), x.local().end(), 0.0);
    closures.clear();
    if (ring != nullptr) ring->clear();
    const Stats before = proc.stats();
    sync.arrive_and_wait();
    const auto t0 = Clock::now();
    const sv::SolveResult res =
        mg ? sv::pcg_dist<double>(op, prec, b, x, opts)
           : sv::cg_fused_dist<double>(op, b, x, opts);
    sync.arrive_and_wait();
    const double wall = pb::seconds_between(t0, Clock::now());
    const Stats& after = proc.stats();
    const auto ume = static_cast<std::size_t>(me);
    sh.rank_counts[ume] = Counts::between(after, before);
    sh.rank_modeled[ume] = after.modeled_seconds() - before.modeled_seconds();
    sh.rank_wait[ume] =
        after.modeled_wait_seconds - before.modeled_wait_seconds;
    std::copy(x.local().begin(), x.local().end(),
              sh.x_full.begin() + static_cast<std::ptrdiff_t>(lo));
    if (ring != nullptr) {
      sh.layers[ume].add_solve(ring->spans(), closures, ring->dropped());
    }
    sync.arrive_and_wait();
    if (lead) sh.solves.push_back(evaluate(sh, res, wall));
  };

  if (phase == Phase::kTimed) {
    // Warm-up: lazy set-up (smoother diagonals) finishes and caches fill.
    solve(0);
    const auto start = Clock::now();
    for (std::uint64_t k = 1;; ++k) {
      solve(k);
      if (lead) {
        sh.stop = k >= kMinTimedSolves &&
                  pb::seconds_between(start, Clock::now()) >= sh.args.seconds;
      }
      sync.arrive_and_wait();
      if (sh.stop) break;
    }
    solve(0);  // the warm-up's inputs again: must repeat bit for bit
    return;
  }

  // Warm-up as in the timed phase (checked and counted as attempted, but
  // left out of every metric), then the recorded solves.
  const auto ume = static_cast<std::size_t>(me);
  solve(0);
  sh.layers[ume] = pb::LayerAccum{};
  sync.arrive_and_wait();
  for (int k = 0; k < w.traced_solves; ++k) solve(static_cast<std::uint64_t>(k));
  if (ring != nullptr) return;

  // ---- direct layer timings on the workload's data ----------------------
  const double rows = static_cast<double>(mat.local_rows());
  const double nnz = static_cast<double>(mat.local_nnz());
  const double ghosts = static_cast<double>(mat.halo_plan().n_ghosts());
  // Computed bytes: 12 per stored entry (value + column index), 8 per owned
  // row and ghost read of the source vector, 8 per row written; the sweep
  // also reads the right-hand side and the cached diagonal.
  sh.rank_spmv_bytes[ume] = 12.0 * nnz + 8.0 * (rows + ghosts) + 8.0 * rows;
  sh.rank_gs_bytes[ume] = 12.0 * nnz + 8.0 * (rows + ghosts) + 24.0 * rows;

  // Collective calls: per-call wall of a batch, median over batches.
  const auto time_collective_us = [&](int calls,
                                      const std::function<void()>& fn) {
    std::vector<double> us;
    for (int rep = 0; rep < 7; ++rep) {
      sync.arrive_and_wait();
      const auto t0 = Clock::now();
      for (int i = 0; i < calls; ++i) fn();
      sync.arrive_and_wait();
      us.push_back(pb::seconds_between(t0, Clock::now()) * 1e6 / calls);
    }
    return pb::median(us);
  };

  sync.arrive_and_wait();
  if (lead) {
    volatile bool eq = true;
    sh.direct.dist_eq_us =
        time_local_us([&] { eq = eq && (*dist == mat.row_dist()); });
  }
  const int sweeps = static_cast<int>(
      std::max<std::size_t>(2, 2'000'000 / sh.a.nnz()));
  const double gs_us = time_collective_us(sweeps, [&] {
    mat.gs_half_sweep(b, x, /*forward=*/true, /*exact=*/false);
  });
  if (lead) sh.direct.gs_sweep_us = gs_us;
  if (mg) {
    const auto& d = w.dims;
    const std::array<std::size_t, 3> cd{d[0] / 2, d[1] / 2, d[2] / 2};
    const auto cdist = std::make_shared<const Distribution>(
        Distribution::block(cd[0] * cd[1] * cd[2], proc.nprocs()));
    sv::GridTransfer gt;
    gt.build(proc, d, *dist, cd, *cdist);
    DVec coarse(proc, cdist);
    const double restrict_us = time_collective_us(20, [&] {
      gt.restrict_to(proc, std::span<const double>(x.local()),
                     coarse.local());
    });
    const double prolong_us = time_collective_us(20, [&] {
      gt.prolong_add(proc, std::span<const double>(coarse.local()),
                     x.local());
    });
    if (lead) {
      sh.direct.restrict_us = restrict_us;
      sh.direct.prolong_us = prolong_us;
    }
  }
}

/// Build the machine and run `phase` on it.  Returns the construction time
/// of the Runtime (part of setup_s).
double run_machine(Shared& sh, Phase phase, bool traced) {
  const auto t0 = Clock::now();
  hpfcg::msg::Runtime rt(sh.w.np);
  const double ctor_s = pb::seconds_between(t0, Clock::now());
  const bool side_channel = rt.checker() != nullptr || rt.racer() != nullptr ||
                            rt.repro_active();
  if (side_channel || (rt.tracer() != nullptr) != traced) {
    std::cerr << "perfbench: the machine's side channels are not as "
                 "requested; refusing to time it\n";
    std::exit(3);
  }
  rt.run([&](Process& proc) { rank_main(proc, sh, phase); });
  return ctor_s;
}

// ---- output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) correct = correct && std::isfinite(m.value);
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? json_number(m.value) : "null")
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_metrics(const std::string& title, const std::vector<Metric>& ms) {
  hpfcg::util::Table t(title, {"metric", "value", "unit"});
  for (const Metric& m : ms) {
    t.add_row({m.name, json_number(m.value), m.unit});
  }
  t.print(std::cout);
}

std::size_t count_failed(const std::vector<SolveRecord>& v) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [](const auto& r) { return !r.ok; }));
}

double max_true_residual(const std::vector<SolveRecord>& v) {
  double m = 0.0;
  for (const auto& r : v) m = std::max(m, r.true_rel_res);
  return m;
}

int run_end_to_end(const Workload& w, const sp::Csr<double>& a,
                   const Args& args) {
  std::vector<double> setup_s;
  Shared sh(w, a, args);
  const auto setups_start = Clock::now();
  for (bool last = false; !last;) {
    const int done = static_cast<int>(setup_s.size()) + 1;
    last = done >= kMaxSetupReps ||
           (done >= kMinSetupReps &&
            pb::seconds_between(setups_start, Clock::now()) >= kSetupSeconds);
    const double ctor_s =
        run_machine(sh, last ? Phase::kTimed : Phase::kSetupOnly, false);
    setup_s.push_back(ctor_s + sh.distribute_s + sh.halo_plan_s +
                      sh.mg_setup_s);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // solves = [warm-up, timed..., repeat of the warm-up]
  const auto& all = sh.solves;
  std::vector<double> solve_s;
  std::vector<double> iter_us;
  for (std::size_t i = 1; i + 1 < all.size(); ++i) {
    solve_s.push_back(all[i].wall_s);
    iter_us.push_back(all[i].wall_s * 1e6 /
                      static_cast<double>(std::max<std::size_t>(
                          all[i].iterations, 1)));
  }
  const bool repeatable = same_solve(all.front(), all.back());
  const std::size_t failed = count_failed(all);
  const std::size_t beyond_p90 =
      static_cast<std::size_t>(std::count_if(
          solve_s.begin(), solve_s.end(),
          [p = pb::quantile(solve_s, 0.9)](double s) { return s > p; }));

  std::cout << "\n" << w.name << ": " << solve_s.size()
            << " timed solves (plus warm-up and its repeat), setup_s over "
            << setup_s.size() << " set-ups, "
            << all[1].iterations << " iterations on the first timed solve\n"
            << "solve_s.p90 = " << pb::quantile(solve_s, 0.9) << " s with "
            << beyond_p90 << " samples beyond it"
            << (beyond_p90 < 10 ? " (fewer than 10: indicative only)" : "")
            << "\nsolve_s min/p25/p50/p75/max = " << pb::quantile(solve_s, 0.0)
            << "/" << pb::quantile(solve_s, 0.25) << "/"
            << pb::quantile(solve_s, 0.5) << "/" << pb::quantile(solve_s, 0.75)
            << "/" << pb::quantile(solve_s, 1.0)
            << "\nfail_ratio = " << failed << "/" << all.size()
            << "; max true residual " << max_true_residual(all)
            << "; warm-up repeat bit-identical: "
            << (repeatable ? "yes" : "NO") << "\n";

  const std::vector<Metric> metrics = {
      {"solve_s", pb::median(solve_s), "s"},
      {"iter_us", pb::median(iter_us), "us"},
      {"setup_s", pb::median(setup_s), "s"},
      {"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
  };
  print_metrics("end-to-end metrics", metrics);
  print_result(failed == 0 && repeatable, all.size(), failed, metrics);
  return 0;
}

int run_layers(const Workload& w, const sp::Csr<double>& a, const Args& args,
               const pb::HostReport& host) {
  // Untraced reference solves plus direct layer timings ...
  Shared plain(w, a, args);
  run_machine(plain, Phase::kFixed, false);

  // ... then the same solves traced.
  hpfcg::trace::set_ring_capacity(kRingSpans);
  hpfcg::trace::set_enabled(true);
  Shared traced(w, a, args);
  run_machine(traced, Phase::kFixed, true);
  hpfcg::trace::set_enabled(false);

  // Ceilings, measured after the solves so they do not warm them.
  const std::size_t array_bytes =
      std::max<std::size_t>(4 * host.llc_bytes, std::size_t{64} << 20);
  const pb::Triad t1 = pb::triad(1, array_bytes);
  const pb::Triad tn = pb::triad(w.np, array_bytes);
  const std::size_t halo_payload =
      8 * (w.dims[2] == 1 ? w.dims[0] : w.dims[0] * w.dims[1]);
  const double ping8 = pb::pingpong_us(8);
  const double ping_halo = pb::pingpong_us(halo_payload);
  const double ar[2][2] = {{pb::allreduce_us(2, 1), pb::allreduce_us(2, 2)},
                           {pb::allreduce_us(4, 1), pb::allreduce_us(4, 2)}};

  // ---- per-layer numbers ------------------------------------------------
  const int np = w.np;
  const auto& L = traced.layers;
  const pb::LayerAccum& r0 = L[0];
  const auto row_max = [&](auto&& f) {
    double m = 0.0;
    for (const auto& acc : L) m = std::max(m, f(acc));
    return m;
  };
  const auto excl_us = [](int layer) {
    return [layer](const pb::LayerAccum& acc) {
      return acc.per_iter_us(acc.excl_ns[static_cast<std::size_t>(layer)]);
    };
  };
  // Exclusive times nest inside the iteration spans, so the rows always sum
  // to the iteration-span time.  Coverage is the share of it that a named
  // layer holds: `other` spans and bookkeeping (iteration time no child span
  // covers) are left out.
  double sum_rows_ns = 0.0;
  for (const double ns : r0.excl_ns) sum_rows_ns += ns;
  const double named_ns = sum_rows_ns - r0.excl_ns[pb::kOther] -
                          r0.excl_ns[pb::kBookkeeping];

  std::uint64_t iters = 0;
  double plain_wall = 0.0;
  double modeled = 0.0;
  double wait = 0.0;
  Counts c;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  double traced_wall = 0.0;
  // solves = [warm-up, recorded...] in both phases, on the same inputs.
  const std::size_t n_solves =
      std::min(plain.solves.size(), traced.solves.size());
  bool repeatable = plain.solves.size() == traced.solves.size();
  for (std::size_t k = 0; k < n_solves; ++k) {
    repeatable = repeatable && same_solve(plain.solves[k], traced.solves[k]);
  }
  for (std::size_t k = 1; k < n_solves; ++k) {
    const SolveRecord& s = plain.solves[k];
    iters += s.iterations;
    plain_wall += s.wall_s;
    modeled += s.modeled_max_s;
    wait += s.modeled_wait_max_s;
    c += s.total;
    plain_s.push_back(s.wall_s);
    traced_s.push_back(traced.solves[k].wall_s);
    traced_wall += traced.solves[k].wall_s;
  }
  const double it = static_cast<double>(std::max<std::uint64_t>(iters, 1));
  const double solves = static_cast<double>(plain_s.size());
  const double triad_np = tn.gbps;
  double spmv_bytes = 0.0;
  double gs_bytes = 0.0;
  for (int r = 0; r < np; ++r) {
    spmv_bytes += plain.rank_spmv_bytes[static_cast<std::size_t>(r)];
    gs_bytes += plain.rank_gs_bytes[static_cast<std::size_t>(r)];
  }
  // Machine rates: bytes of all ranks over the slowest rank's time.
  const double spmv_ns_per_call =
      row_max([](const pb::LayerAccum& acc) {
        return acc.excl_ns[pb::kSpmv] /
               static_cast<double>(std::max<std::uint64_t>(acc.matvecs, 1));
      });
  const double spmv_gbps = spmv_bytes / spmv_ns_per_call;
  double vec_bytes_iter = 0.0;
  for (const auto& acc : L) {
    vec_bytes_iter += acc.vec_bytes / static_cast<double>(
                                          std::max<std::uint64_t>(
                                              acc.iterations, 1));
  }
  const double vec_gbps = vec_bytes_iter / (row_max(excl_us(pb::kVec)) * 1e3);
  const double gs_gbps = gs_bytes / (plain.direct.gs_sweep_us * 1e3);
  std::uint64_t dropped = 0;
  for (const auto& acc : L) dropped += acc.dropped;
  const double coverage = sum_rows_ns > 0.0 ? named_ns / sum_rows_ns : 0.0;
  const double overhead = pb::median(traced_s) / pb::median(plain_s);

  // ---- layer table ------------------------------------------------------
  hpfcg::util::Table table(
      std::string(w.name) + " layer table: exclusive wall µs per iteration "
      "inside solver iterations (rank 0, max over ranks), " +
          std::to_string(w.traced_solves) + " traced solves, " +
          std::to_string(r0.iterations) + " iterations",
      {"layer", "rank 0 us/iter", "max rank us/iter", "share of rank 0"});
  for (int l = 0; l < pb::kLayerCount; ++l) {
    const double v0 = excl_us(l)(r0);
    table.add_row({pb::layer_name(l), hpfcg::util::fmt(v0, 4),
                   hpfcg::util::fmt(row_max(excl_us(l)), 4),
                   hpfcg::util::fmt(sum_rows_ns > 0.0
                                        ? r0.excl_ns[static_cast<std::size_t>(
                                              l)] / sum_rows_ns
                                        : 0.0,
                                    3)});
  }
  table.add_row({"(rows summed = iteration spans)",
                 hpfcg::util::fmt(r0.per_iter_us(sum_rows_ns), 4), "-", "1"});
  table.add_row({"(named layers = coverage)",
                 hpfcg::util::fmt(r0.per_iter_us(named_ns), 4), "-",
                 hpfcg::util::fmt(coverage, 4)});
  table.add_row({"(traced solve wall / iterations)",
                 hpfcg::util::fmt(traced_wall * 1e6 /
                                      static_cast<double>(std::max<std::uint64_t>(
                                          r0.iterations, 1)),
                                  4),
                 "-", "-"});
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "direct calls on the workload's data: Distribution== "
            << plain.direct.dist_eq_us << " us, gs_half_sweep "
            << plain.direct.gs_sweep_us << " us";
  if (w.mg) {
    std::cout << ", GridTransfer::restrict_to " << plain.direct.restrict_us
              << " us, prolong_add " << plain.direct.prolong_us << " us";
  }
  std::cout << "\nceilings: triad arrays " << (tn.array_bytes >> 20)
            << " MiB each vs last-level cache " << (host.llc_bytes >> 20)
            << " MiB; allreduce_batch width 1/2 at NP=2: " << ar[0][0] << "/"
            << ar[0][1] << " us, at NP=4: " << ar[1][0] << "/" << ar[1][1]
            << " us; ping-pong payload " << halo_payload << " B (one halo "
            << "plane/row of the grid)\n"
            << "fail_ratio = " << count_failed(plain.solves) +
                                      count_failed(traced.solves)
            << "/" << plain.solves.size() + traced.solves.size()
            << "; max true residual "
            << std::max(max_true_residual(plain.solves),
                        max_true_residual(traced.solves))
            << "; traced solves bit-identical to untraced: "
            << (repeatable ? "yes" : "NO") << "\n";

  const std::vector<Metric> metrics = {
      {"msg.recv_wait_us", excl_us(pb::kRecv)(r0), "us"},
      {"msg.send_us", excl_us(pb::kSend)(r0), "us"},
      {"msg.reduce_us", excl_us(pb::kReduce)(r0), "us"},
      {"msg.reduce_incl_us", r0.per_iter_us(r0.reduce_incl_ns), "us"},
      {"msg.pingpong_us", ping8, "us"},
      {"msg.pingpong_halo_us", ping_halo, "us"},
      {"msg.allreduce1_us", ar[1][0], "us"},
      {"msg.allreduce2_us", ar[1][1], "us"},
      {"msg.msgs_per_iter", static_cast<double>(c.messages) / it, "count"},
      {"msg.bytes_per_iter", static_cast<double>(c.bytes) / it, "B"},
      {"msg.reductions_per_iter",
       static_cast<double>(c.reductions) / static_cast<double>(np) / it,
       "count"},
      {"msg.envelopes_heap", static_cast<double>(c.envelopes_heap), "count"},
      {"hpf.dist_eq_us", plain.direct.dist_eq_us, "us"},
      {"hpf.vec_us", excl_us(pb::kVec)(r0), "us"},
      {"hpf.vec_gbps", vec_gbps, "GB/s"},
      {"hpf.vec_roof", vec_gbps / triad_np, "ratio"},
      {"sparse.spmv_us", excl_us(pb::kSpmv)(r0), "us"},
      {"sparse.spmv_gbps", spmv_gbps, "GB/s"},
      {"sparse.spmv_roof", spmv_gbps / triad_np, "ratio"},
      {"sparse.halo_us", excl_us(pb::kHalo)(r0), "us"},
      {"sparse.halo_incl_us", r0.per_iter_us(r0.halo_incl_ns), "us"},
      {"sparse.halo_bytes_per_iter", static_cast<double>(c.halo_bytes) / it,
       "B"},
      {"sparse.halo_msgs_per_iter", static_cast<double>(c.halo_msgs) / it,
       "count"},
      {"sparse.halo_fallbacks", static_cast<double>(c.halo_fallbacks),
       "count"},
      {"sparse.gs_sweep_us", plain.direct.gs_sweep_us, "us"},
      {"sparse.gs_gbps", gs_gbps, "GB/s"},
      {"sparse.distribute_s", plain.distribute_s, "s"},
      {"sparse.halo_plan_s", plain.halo_plan_s, "s"},
      {"solvers.iterations", static_cast<double>(iters) / solves, "count"},
      {"solvers.bookkeeping_us", excl_us(pb::kBookkeeping)(r0), "us"},
      {"solvers.precond_us", excl_us(pb::kPrecond)(r0), "us"},
      {"solvers.mg_l0_us", excl_us(pb::kMgL0)(r0), "us"},
      {"solvers.mg_l1_us", excl_us(pb::kMgL1)(r0), "us"},
      {"solvers.mg_l2_us", excl_us(pb::kMgL2)(r0), "us"},
      {"solvers.mg_l3_us", excl_us(pb::kMgL3)(r0), "us"},
      {"solvers.mg_setup_s", plain.mg_setup_s, "s"},
      {"solvers.flops_per_iter", static_cast<double>(c.flops) / it, "count"},
      {"solvers.gflops", static_cast<double>(c.flops) / plain_wall * 1e-9,
       "GFLOP/s"},
      {"model.iter_us", modeled / it * 1e6, "us"},
      {"model.wait_s", wait / solves, "s"},
      {"machine.triad_gbps.1t", t1.gbps, "GB/s"},
      {"machine.triad_gbps.np", tn.gbps, "GB/s"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead", overhead, "ratio"},
      {"trace.dropped", static_cast<double>(dropped), "count"},
  };
  print_metrics("per-layer metrics", metrics);
  const std::size_t failed =
      count_failed(plain.solves) + count_failed(traced.solves);
  const bool correct = failed == 0 && repeatable && dropped == 0 &&
                       c.halo_fallbacks == 0;
  print_result(correct, plain.solves.size() + traced.solves.size(), failed,
               metrics);
  return 0;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (val == w.name) args.w = &w;
      }
      if (args.w == nullptr) return usage(("unknown workload " + val).c_str());
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
      have_seconds = args.seconds > 0.0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      args.trace = val == "1";
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (args.w == nullptr || !have_seed || !have_seconds) {
    return usage("--workload, --seed and a positive --seconds are required");
  }
  if (args.trace && !hpfcg::trace::kCompiled) {
    std::cerr << "perfbench: --trace 1 needs the trace layer compiled in\n";
    return 3;
  }
  const std::string why = pb::refuse_reason();
  if (!why.empty()) {
    std::cerr << "perfbench: refusing to time: " << why
              << " (that measures a different program)\n";
    return 3;
  }

  const pb::HostReport host = pb::probe_host();
  pb::print_host(std::cout, host);
  const Workload& w = *args.w;
  // Input generation is the benchmark's own work: outside every timer.
  const sp::Csr<double> a =
      w.mg ? sp::stencil27_3d(w.dims[0], w.dims[1], w.dims[2])
           : sp::laplacian_2d(w.dims[0], w.dims[1]);
  std::cout << "workload " << w.name << ": " << a.n_rows() << " rows, "
            << a.nnz() << " nonzeros, NP=" << w.np << ", seed " << args.seed
            << ", " << (w.mg ? "pcg_dist + MgPreconditioner" : "cg_fused_dist")
            << ", rel tol " << kTol << "\n";
  try {
    return args.trace ? run_layers(w, a, args, host)
                      : run_end_to_end(w, a, args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << w.name << " failed: " << e.what() << "\n";
    return 4;
  }
}
