// Experiment A6 (Section 2.1): the CG solver family's communication
// profiles (merges per rank and iteration, the exit-test norms included).
//
//   CG        1 matvec (halo exchange)        + 2 merges
//   BiCG      2 matvecs, one with A^T         + 3 merges — the transpose
//             product ships ghost partials back to their owners (the
//             halo's reverse exchange), "negating" the row-storage
//             optimisation
//   CGS       2 matvecs, no A^T, extra vectors; can diverge
//   BiCGSTAB  2 matvecs, no A^T               + 6 merges: 4 inner products
//             plus the s and r norms its two exit tests read
//
// Fixed 20 iterations (no early exit) so the per-iteration communication
// is directly comparable; a second table reports iterations-to-tolerance.

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/solvers/stationary.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"

using hpfcg::hpf::Distribution;
using hpfcg::hpf::DistributedVector;
using hpfcg::msg::Process;
namespace sv = hpfcg::solvers;

namespace {

enum class Method { kCg, kBicg, kBicgstab };

const char* name_of(Method m) {
  switch (m) {
    case Method::kCg:
      return "CG";
    case Method::kBicg:
      return "BiCG (uses A^T)";
    case Method::kBicgstab:
      return "BiCGSTAB (6 merges)";
  }
  return "?";
}

}  // namespace

int main() {
  const auto a = hpfcg::sparse::laplacian_2d(40, 40);
  const std::size_t n = a.n_rows();
  const auto b_full = hpfcg::sparse::random_rhs(n, 606);
  const std::size_t fixed_iters = 20;

  hpfcg::util::Table comm(
      "A6 — per-iteration communication by method (n=" + std::to_string(n) +
          ", " + std::to_string(fixed_iters) + " fixed iterations)",
      {"method", "NP", "bytes/it", "msgs/it", "collectives/it",
       "modeled[ms]/it"});

  for (const int np : {4, 8}) {
    for (const auto m : {Method::kCg, Method::kBicg, Method::kBicgstab}) {
      auto rt = hpfcg_bench::run_machine(np, [&](Process& proc) {
        auto dist =
            std::make_shared<const Distribution>(Distribution::block(n, np));
        auto mat = hpfcg::sparse::DistCsr<double>::row_aligned(proc, a, dist);
        DistributedVector<double> b(proc, dist), x(proc, dist);
        b.from_global(b_full);
        const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                          DistributedVector<double>& q) {
          mat.matvec(p, q);
        };
        const sv::DistOp<double> op_t =
            [&](const DistributedVector<double>& p,
                DistributedVector<double>& q) { mat.matvec_transpose(p, q); };
        sv::SolveOptions opts{.max_iterations = fixed_iters,
                              .rel_tolerance = 0.0};
        switch (m) {
          case Method::kCg:
            (void)sv::cg_dist<double>(op, b, x, opts);
            break;
          case Method::kBicg:
            (void)sv::bicg_dist<double>(op, op_t, b, x, opts);
            break;
          case Method::kBicgstab:
            (void)sv::bicgstab_dist<double>(op, b, x, opts);
            break;
        }
      });
      const auto total = rt->total_stats();
      const double it = static_cast<double>(fixed_iters);
      comm.add_row(
          {name_of(m), std::to_string(np),
           hpfcg::util::fmt(static_cast<double>(total.bytes_sent) / it, 5),
           hpfcg::util::fmt(static_cast<double>(total.messages_sent) / it, 4),
           hpfcg::util::fmt(static_cast<double>(total.collectives) / it, 4),
           hpfcg::util::fmt(rt->modeled_makespan() * 1e3 / it, 4)});
    }
  }
  comm.print(std::cout);

  // Iterations-to-tolerance (serial references; SPD so all apply).
  hpfcg::util::Table conv("A6 — iterations to 1e-8 on the same system",
                          {"method", "iterations", "converged", "breakdown"});
  const sv::SolveOptions opts{.max_iterations = 2000, .rel_tolerance = 1e-8};
  {
    std::vector<double> x(n, 0.0);
    const auto r = sv::cg(a, b_full, x, opts);
    conv.add_row({"CG", std::to_string(r.iterations),
                  r.converged ? "yes" : "no", r.breakdown ? "yes" : "no"});
  }
  {
    std::vector<double> x(n, 0.0);
    const auto r = sv::bicg(a, b_full, x, opts);
    conv.add_row({"BiCG", std::to_string(r.iterations),
                  r.converged ? "yes" : "no", r.breakdown ? "yes" : "no"});
  }
  {
    std::vector<double> x(n, 0.0);
    const auto r = sv::cgs(a, b_full, x, opts);
    conv.add_row({"CGS", std::to_string(r.iterations),
                  r.converged ? "yes" : "no", r.breakdown ? "yes" : "no"});
  }
  {
    std::vector<double> x(n, 0.0);
    const auto r = sv::bicgstab(a, b_full, x, opts);
    conv.add_row({"BiCGSTAB", std::to_string(r.iterations),
                  r.converged ? "yes" : "no", r.breakdown ? "yes" : "no"});
  }
  // Pre-Krylov stationary baselines — what "preferred over simple
  // Gaussian algorithms because of their faster convergence rate"
  // competes against in the iterative world.
  {
    std::vector<double> x(n, 0.0);
    const sv::SolveOptions sopts{.max_iterations = 100000,
                                 .rel_tolerance = 1e-8};
    const auto r = sv::jacobi_iteration(a, b_full, x, sopts);
    conv.add_row({"Jacobi iteration", std::to_string(r.iterations),
                  r.converged ? "yes" : "no", "no"});
  }
  {
    std::vector<double> x(n, 0.0);
    const sv::SolveOptions sopts{.max_iterations = 100000,
                                 .rel_tolerance = 1e-8};
    const auto r = sv::sor_iteration(a, b_full, x, 1.0, sopts);
    conv.add_row({"Gauss-Seidel", std::to_string(r.iterations),
                  r.converged ? "yes" : "no", "no"});
  }
  {
    std::vector<double> x(n, 0.0);
    const sv::SolveOptions sopts{.max_iterations = 100000,
                                 .rel_tolerance = 1e-8};
    const auto r = sv::sor_iteration(a, b_full, x, 1.7, sopts);
    conv.add_row({"SOR(1.7)", std::to_string(r.iterations),
                  r.converged ? "yes" : "no", "no"});
  }
  conv.print(std::cout);

  std::cout
      << "\nReading: BiCG moves about 1.9x CG's bytes per iteration (the\n"
         "A^T product is a second neighbour exchange, ghost partials sent\n"
         "back to their owners) — Section 2.1's warning that transpose\n"
         "products negate row-storage tuning.  BiCGSTAB avoids A^T but\n"
         "makes 6 DOT_PRODUCT merges per iteration against CG's 2, its\n"
         "'greater demand for an efficient intrinsic'.  On SPD systems\n"
         "BiCG tracks CG's iteration count.\n";
  return 0;
}
