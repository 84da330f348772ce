// Distributed solves must match the serial names for every machine size and
// every matvec kernel (dense row/col, CSR, CSC private): to tolerance in
// plain mode, and bit for bit at NP = 1 and under HPFCG_REPRO, because a
// serial name runs the same solver text on one rank.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "hpfcg/hpf/matvec_dense.hpp"
#include "hpfcg/msg/stats.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/solvers/dist_gmres.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/preconditioner.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/solvers/stationary.hpp"
#include "hpfcg/sparse/convert.hpp"
#include "hpfcg/sparse/dist_csc.hpp"
#include "hpfcg/sparse/dist_csr.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "hpfcg/trace/trace.hpp"
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

struct Reference {
  sp::Csr<double> a;
  std::vector<double> b;
  std::vector<double> x;
  sv::SolveResult res;
};

Reference serial_reference(const sp::Csr<double>& a, std::uint64_t seed) {
  Reference ref{a, sp::random_rhs(a.n_rows(), seed),
                std::vector<double>(a.n_rows(), 0.0),
                {}};
  ref.res = sv::cg(ref.a, ref.b, ref.x,
                   {.rel_tolerance = 1e-10, .track_residuals = true});
  return ref;
}

class DistSolversTest : public ::testing::TestWithParam<int> {};

TEST_P(DistSolversTest, CgOverCsrMatchesSerialIterateForIterate) {
  const int np = GetParam();
  const auto ref = serial_reference(sp::laplacian_2d(7, 9), 31);
  const std::size_t n = ref.a.n_rows();

  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, ref.a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(ref.b);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const auto res = sv::cg_dist<double>(op, b, x,
                                         {.rel_tolerance = 1e-10,
                                          .track_residuals = true});
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, ref.res.iterations);
    ASSERT_EQ(res.residual_history.size(), ref.res.residual_history.size());
    for (std::size_t k = 0; k < res.residual_history.size(); ++k) {
      EXPECT_NEAR(res.residual_history[k], ref.res.residual_history[k],
                  1e-6 * (1.0 + ref.res.residual_history[k]));
    }
    const auto full = x.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], ref.x[i], 1e-7);
  });
}

TEST_P(DistSolversTest, CgOverCscPrivateMergeMatchesSerial) {
  const int np = GetParam();
  const auto ref = serial_reference(sp::random_spd(60, 5, 71), 72);
  const auto csc = sp::csr_to_csc(ref.a);
  const std::size_t n = ref.a.n_rows();

  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(n, proc.nprocs()));
    auto mat = sp::DistCsc<double>::col_aligned(proc, csc, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(ref.b);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec_private(p, q);
    };
    const auto res =
        sv::cg_dist<double>(op, b, x, {.rel_tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, ref.res.iterations);
    const auto full = x.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], ref.x[i], 1e-7);
  });
}

TEST_P(DistSolversTest, CgOverDenseRowwiseMatchesSerial) {
  const int np = GetParam();
  const std::size_t n = 48;
  // Dense SPD electromagnetics surrogate.
  const auto entry = [](std::size_t i, std::size_t j) {
    return sp::em_dense_entry(i, j, 6.0);
  };
  sp::Coo<double> coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) coo.add(i, j, entry(i, j));
  }
  const auto ref = serial_reference(sp::Csr<double>::from_coo(std::move(coo)),
                                    91);

  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(n, proc.nprocs()));
    hpfcg::hpf::DenseRowBlockMatrix<double> mat(proc, dist);
    mat.set_from(entry);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(ref.b);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      hpfcg::hpf::matvec_rowwise(mat, p, q);
    };
    const auto res =
        sv::cg_dist<double>(op, b, x, {.rel_tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    const auto full = x.to_global();
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(full[i], ref.x[i], 1e-7);
  });
}

TEST_P(DistSolversTest, PcgJacobiMatchesSerialPcg) {
  const int np = GetParam();
  const auto a = sp::random_spd(64, 5, 101);
  const auto b_full = sp::random_rhs(64, 102);
  std::vector<double> x_ref(64, 0.0);
  const auto ref_res =
      sv::pcg(a, sv::jacobi_preconditioner(a), b_full, x_ref,
              {.rel_tolerance = 1e-10});
  ASSERT_TRUE(ref_res.converged);
  const auto diag = a.diagonal();

  run_spmd(np, [&](Process& proc) {
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
    const auto res = sv::pcg_dist<double>(op, sv::jacobi_dist(inv_diag), b, x,
                                          {.rel_tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, ref_res.iterations);
    const auto full = x.to_global();
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_NEAR(full[i], x_ref[i], 1e-7);
    }
  });
}

TEST_P(DistSolversTest, BicgUsesTransposeAndMatchesSerial) {
  const int np = GetParam();
  const auto a = sp::laplacian_2d(6, 8);
  const auto b_full = sp::random_rhs(a.n_rows(), 111);
  std::vector<double> x_ref(a.n_rows(), 0.0);
  const auto ref_res = sv::bicg(a, b_full, x_ref, {.rel_tolerance = 1e-10});
  ASSERT_TRUE(ref_res.converged);

  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(b_full);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const sv::DistOp<double> op_t = [&](const DistributedVector<double>& p,
                                        DistributedVector<double>& q) {
      mat.matvec_transpose(p, q);
    };
    const auto res = sv::bicg_dist<double>(op, op_t, b, x,
                                           {.rel_tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, ref_res.iterations);
    const auto full = x.to_global();
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_NEAR(full[i], x_ref[i], 1e-6);
    }
  });
}

TEST_P(DistSolversTest, BicgstabMatchesSerial) {
  const int np = GetParam();
  const auto a = sp::random_spd(50, 5, 121);
  const auto b_full = sp::random_rhs(50, 122);
  std::vector<double> x_ref(50, 0.0);
  const auto ref_res =
      sv::bicgstab(a, b_full, x_ref, {.rel_tolerance = 1e-10});
  ASSERT_TRUE(ref_res.converged);

  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(50, proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist);
    b.from_global(b_full);
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
    };
    const auto res =
        sv::bicgstab_dist<double>(op, b, x, {.rel_tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, ref_res.iterations);
    const auto full = x.to_global();
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_NEAR(full[i], x_ref[i], 1e-6);
    }
  });
}

TEST_P(DistSolversTest, BicgCostsMoreCommunicationThanCg) {
  // Section 2.1: BiCG's A^T product turns the broadcast-only iteration into
  // broadcast + merge — more data on the wire per iteration.
  const int np = GetParam();
  if (np == 1) GTEST_SKIP() << "no communication on one processor";
  const auto a = sp::laplacian_2d(8, 8);
  const auto b_full = sp::random_rhs(a.n_rows(), 131);

  const auto run_solver = [&](bool use_bicg) {
    auto rt = run_spmd(np, [&](Process& proc) {
      auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
      auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
      DistributedVector<double> b(proc, dist), x(proc, dist);
      b.from_global(b_full);
      const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                        DistributedVector<double>& q) {
        mat.matvec(p, q);
      };
      const sv::DistOp<double> op_t = [&](const DistributedVector<double>& p,
                                          DistributedVector<double>& q) {
        mat.matvec_transpose(p, q);
      };
      sv::SolveOptions opts{.max_iterations = 10, .rel_tolerance = 1e-30};
      if (use_bicg) {
        (void)sv::bicg_dist<double>(op, op_t, b, x, opts);
      } else {
        (void)sv::cg_dist<double>(op, b, x, opts);
      }
    });
    return rt->total_stats().bytes_sent;
  };
  EXPECT_GT(run_solver(true), run_solver(false));
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, DistSolversTest,
                         ::testing::ValuesIn(test_machine_sizes()));

// ---- non-finite and indefinite exits -------------------------------------

/// Machine column of the exit tests: kSerial runs the serial solver, any
/// other value the distributed one on that many ranks.
constexpr int kSerial = 0;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Runs the serial solver named `solver` over `op` (and `op_t` for BiCG),
/// with the identity as the PCG preconditioner and `diag` for Jacobi.
sv::SolveResult run_named_serial(const std::string& solver,
                                 const sv::MatVec& op, const sv::MatVec& op_t,
                                 std::span<const double> diag,
                                 std::span<const double> b,
                                 std::span<double> x,
                                 const sv::SolveOptions& opts) {
  const sv::PrecApply identity = [](std::span<const double> r,
                                    std::span<double> z) {
    std::copy(r.begin(), r.end(), z.begin());
  };
  if (solver == "cg") return sv::cg(op, b, x, opts);
  if (solver == "cg_fused") return sv::cg_fused(op, b, x, opts);
  if (solver == "pcg") return sv::pcg(op, identity, b, x, opts);
  if (solver == "pcg_fused") return sv::pcg_fused(op, identity, b, x, opts);
  if (solver == "bicg") return sv::bicg(op, op_t, b, x, opts);
  if (solver == "bicgstab") return sv::bicgstab(op, b, x, opts);
  if (solver == "bicgstab_fused") return sv::bicgstab_fused(op, b, x, opts);
  if (solver == "cgs") return sv::cgs(op, b, x, opts);
  if (solver == "jacobi") return sv::jacobi_iteration(op, diag, b, x, opts);
  if (solver == "gmres") {
    return sv::gmres(op, b, x, {.base = opts, .restart = 10});
  }
  ADD_FAILURE() << "unknown solver " << solver;
  return {};
}

/// Runs the distributed solver named `solver` over `op` (and `op_t` for
/// BiCG), with the identity as the PCG preconditioner and `inv_diag` for
/// Jacobi.
sv::SolveResult run_named_solver(const std::string& solver,
                                 const sv::DistOp<double>& op,
                                 const sv::DistOp<double>& op_t,
                                 const DistributedVector<double>& inv_diag,
                                 const DistributedVector<double>& b,
                                 DistributedVector<double>& x,
                                 const sv::SolveOptions& opts) {
  const sv::DistPrec<double> identity =
      [](const DistributedVector<double>& r, DistributedVector<double>& z) {
        hpfcg::hpf::assign(r, z);
      };
  if (solver == "cg") return sv::cg_dist<double>(op, b, x, opts);
  if (solver == "cg_fused") return sv::cg_fused_dist<double>(op, b, x, opts);
  if (solver == "pcg") return sv::pcg_dist<double>(op, identity, b, x, opts);
  if (solver == "pcg_fused") {
    return sv::pcg_fused_dist<double>(op, identity, b, x, opts);
  }
  if (solver == "bicg") return sv::bicg_dist<double>(op, op_t, b, x, opts);
  if (solver == "bicgstab") return sv::bicgstab_dist<double>(op, b, x, opts);
  if (solver == "bicgstab_fused") {
    return sv::bicgstab_fused_dist<double>(op, b, x, opts);
  }
  if (solver == "cgs") return sv::cgs_dist<double>(op, b, x, opts);
  if (solver == "jacobi") {
    return sv::jacobi_iteration_dist<double>(op, inv_diag, b, x, opts);
  }
  if (solver == "gmres") {
    return sv::gmres_dist<double>(op, b, x, {.base = opts, .restart = 10});
  }
  ADD_FAILURE() << "unknown solver " << solver;
  return {};
}

/// Solves A x = b from x = 0 with the named solver on machine column `np`
/// (200 iterations at most).  From its `poison_from`-th call on (0: never),
/// the operator — A and A^T share the count — returns NaN in one entry.
/// `check` sees every rank's result and the gathered solution.
void solve_named(
    const std::string& solver, int np, const sp::Csr<double>& a,
    const std::vector<double>& b_full, int poison_from,
    const std::function<void(const sv::SolveResult&,
                             const std::vector<double>&)>& check) {
  const sv::SolveOptions opts{.max_iterations = 200};
  const auto diag = a.diagonal();
  if (np == kSerial) {
    int calls = 0;
    const auto poison = [&](std::span<double> q) {
      if (poison_from > 0 && ++calls >= poison_from) q[0] = kNaN;
    };
    const sv::MatVec op = [&](std::span<const double> p, std::span<double> q) {
      a.matvec(p, q);
      poison(q);
    };
    const sv::MatVec op_t = [&](std::span<const double> p,
                                std::span<double> q) {
      a.matvec_transpose(p, q);
      poison(q);
    };
    std::vector<double> x(a.n_rows(), 0.0);
    const auto res = run_named_serial(solver, op, op_t, diag, b_full, x, opts);
    check(res, x);
    return;
  }
  run_spmd(np, [&](Process& proc) {
    auto dist = share(Distribution::block(a.n_rows(), proc.nprocs()));
    auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
    DistributedVector<double> b(proc, dist), x(proc, dist), inv_diag(proc, dist);
    b.from_global(b_full);
    inv_diag.set_from([&](std::size_t g) { return 1.0 / diag[g]; });
    int calls = 0;
    const auto poison = [&](DistributedVector<double>& q) {
      if (poison_from > 0 && ++calls >= poison_from && proc.rank() == 0) {
        q.local()[0] = kNaN;
      }
    };
    const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                      DistributedVector<double>& q) {
      mat.matvec(p, q);
      poison(q);
    };
    const sv::DistOp<double> op_t = [&](const DistributedVector<double>& p,
                                        DistributedVector<double>& q) {
      mat.matvec_transpose(p, q);
      poison(q);
    };
    const auto res = run_named_solver(solver, op, op_t, inv_diag, b, x, opts);
    check(res, x.to_global());
  });
}

using ExitCase = std::tuple<std::string, int>;

std::string exit_case_name(const ::testing::TestParamInfo<ExitCase>& info) {
  const auto& [solver, np] = info.param;
  return solver + "_" + (np == kSerial ? "serial" : "np" + std::to_string(np));
}

class NonFiniteExitTest : public ::testing::TestWithParam<ExitCase> {};

TEST_P(NonFiniteExitTest, NanInRhsStopsBeforeTheFirstIteration) {
  const auto& [solver, np] = GetParam();
  const auto a = sp::laplacian_2d(6, 6);
  auto b_full = sp::random_rhs(a.n_rows(), 17);
  b_full[a.n_rows() / 2] = kNaN;
  solve_named(solver, np, a, b_full, /*poison_from=*/0,
              [](const sv::SolveResult& res, const std::vector<double>&) {
                EXPECT_TRUE(res.breakdown);
                EXPECT_FALSE(res.converged);
                EXPECT_EQ(res.iterations, 0u);
              });
}

TEST_P(NonFiniteExitTest, NanFromTheOperatorStopsTheLoop) {
  // The operator turns one output entry into NaN from its 4th call on, so
  // the NaN first shows in a residual norm computed inside the loop.
  const auto& [solver, np] = GetParam();
  const auto a = sp::laplacian_2d(6, 6);
  const auto b_full = sp::random_rhs(a.n_rows(), 19);
  solve_named(solver, np, a, b_full, /*poison_from=*/4,
              [](const sv::SolveResult& res, const std::vector<double>&) {
                EXPECT_TRUE(res.breakdown);
                EXPECT_FALSE(res.converged);
                EXPECT_GE(res.iterations, 1u);
                EXPECT_LE(res.iterations, 4u);
              });
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, NonFiniteExitTest,
    ::testing::Combine(::testing::Values("cg", "cg_fused", "pcg", "pcg_fused",
                                         "bicg", "bicgstab", "bicgstab_fused",
                                         "cgs", "gmres", "jacobi"),
                       ::testing::Values(kSerial, 1, 4)),
    exit_case_name);

class IndefiniteExitTest : public ::testing::TestWithParam<ExitCase> {};

TEST_P(IndefiniteExitTest, ZeroCurvatureStopsBeforeTheFirstIteration) {
  // A = diag(+1, -1, ...) and b = ones: (r, A r) sums +1 and -1 in equal
  // number, exactly 0 in any summation order, so every CG-family
  // recurrence divides by zero on its first step.  It must report
  // breakdown at iteration 0 and leave x = 0 untouched.
  const auto& [solver, np] = GetParam();
  std::vector<double> dense(64, 0.0);
  for (std::size_t i = 0; i < 8; ++i) dense[i * 9] = i % 2 == 0 ? 1.0 : -1.0;
  const auto a = sp::Csr<double>::from_dense(8, 8, dense);
  const std::vector<double> b_full(8, 1.0);
  solve_named(solver, np, a, b_full, /*poison_from=*/0,
              [&](const sv::SolveResult& res, const std::vector<double>& x) {
                if (solver == "gmres") {
                  // Two distinct eigenvalues: exact after two steps, and
                  // x = A^-1 b = A b.
                  EXPECT_TRUE(res.converged);
                  EXPECT_EQ(res.iterations, 2u);
                  for (std::size_t i = 0; i < x.size(); ++i) {
                    EXPECT_NEAR(x[i], dense[i * 9], 1e-12);
                  }
                  return;
                }
                EXPECT_TRUE(res.breakdown);
                EXPECT_FALSE(res.converged);
                EXPECT_EQ(res.iterations, 0u);
                for (const double xi : x) EXPECT_EQ(xi, 0.0);
              });
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, IndefiniteExitTest,
    ::testing::Combine(::testing::Values("cg", "cg_fused", "pcg", "pcg_fused",
                                         "bicg", "bicgstab", "bicgstab_fused",
                                         "cgs", "gmres"),
                       ::testing::Values(kSerial, 1, 4)),
    exit_case_name);

// ---- one solver text -------------------------------------------------------

/// Residual signature, history and solution of one tracked solve, with
/// rank 0's trace metrics-channel samples and the machine's total Stats
/// (both left empty for a serial name).
struct Pinned {
  std::uint64_t signature = 0;
  std::vector<std::uint64_t> x_bits;
  std::vector<double> history;
  std::vector<hpfcg::trace::IterationMetrics> samples;
  hpfcg::msg::Stats total;
};

/// Solves A x = b from x = 0 with the named solver, tracking the residual
/// history: the serial name on machine column kSerial, the distributed text
/// on `np` ranks otherwise.  A must be symmetric: BiCG gets A's forward
/// product as A^T on both sides, because DistCsr::matvec_transpose adds the
/// ghost contributions in an NP-dependent order.
Pinned pinned_solve(const std::string& solver, int np,
                    const sp::Csr<double>& a,
                    const std::vector<double>& b_full) {
  const sv::SolveOptions opts{.max_iterations = 500,
                              .rel_tolerance = 1e-10,
                              .track_residuals = true};
  const auto diag = a.diagonal();
  const auto pin = [](const sv::SolveResult& res,
                      const std::vector<double>& x) {
    Pinned p{res.residual_signature(), {}, res.residual_history, {}, {}};
    for (const double v : x) {
      p.x_bits.push_back(std::bit_cast<std::uint64_t>(v));
    }
    return p;
  };
  if (np == kSerial) {
    const sv::MatVec op = [&](std::span<const double> p, std::span<double> q) {
      a.matvec(p, q);
    };
    std::vector<double> x(a.n_rows(), 0.0);
    const auto res = run_named_serial(solver, op, op, diag, b_full, x, opts);
    return pin(res, x);
  }
  Pinned out;
  const auto rt = run_spmd(np, [&](Process& proc) {
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
    const auto res = run_named_solver(solver, op, op, inv_diag, b, x, opts);
    const auto full = x.to_global();
    if (proc.rank() == 0) out = pin(res, full);
  });
  if (rt->tracer() != nullptr) out.samples = rt->tracer()->rank(0).iterations();
  out.total = rt->total_stats();
  return out;
}

class OneSolverTextTest : public ::testing::TestWithParam<std::string> {
 protected:
  // Symmetric and strictly diagonally dominant, so every name converges,
  // Jacobi included.
  const sp::Csr<double> a_ = sp::random_spd(60, 5, 141);
  const std::vector<double> b_ = sp::random_rhs(60, 142);
};

TEST_P(OneSolverTextTest, SerialNameIsTheDistributedTextOnOneRank) {
  hpfcg::repro::ScopedEnable plain(false);
  const auto serial = pinned_solve(GetParam(), kSerial, a_, b_);
  const auto dist = pinned_solve(GetParam(), 1, a_, b_);
  EXPECT_EQ(serial.signature, dist.signature);
  EXPECT_EQ(serial.x_bits, dist.x_bits);
}

TEST_P(OneSolverTextTest, ReproSerialNameMatchesEveryMachineSize) {
  // Exact reductions make the distributed text's bits NP-invariant for a
  // row-wise operator, and the serial name is that text: its signature and
  // solution equal the distributed solve's at every machine size.
  if (!hpfcg::repro::kCompiled) GTEST_SKIP() << "repro mode compiled out";
  hpfcg::repro::ScopedEnable on;
  const auto serial = pinned_solve(GetParam(), kSerial, a_, b_);
  for (const int np : test_machine_sizes()) {
    const auto dist = pinned_solve(GetParam(), np, a_, b_);
    EXPECT_EQ(serial.signature, dist.signature) << "np=" << np;
    EXPECT_EQ(serial.x_bits, dist.x_bits) << "np=" << np;
  }
}

TEST_P(OneSolverTextTest, TraceMetricsChannelSeesEveryRecordedResidual) {
  // Every text records each residual through one exit, which publishes it
  // on the trace metrics channel: rank 0's samples are the residual
  // history, bit for bit and one per recorded step.  Tracing perturbs
  // nothing: x, the signature and every Stats counter match the untraced
  // solve.
  if (!hpfcg::trace::kCompiled) GTEST_SKIP() << "tracing compiled out";
  for (const int np : test_machine_sizes()) {
    Pinned traced, plain;
    {
      hpfcg::trace::ScopedEnable on(true);
      traced = pinned_solve(GetParam(), np, a_, b_);
    }
    {
      hpfcg::trace::ScopedEnable off(false);
      plain = pinned_solve(GetParam(), np, a_, b_);
    }
    const auto& history = traced.history;
    ASSERT_FALSE(history.empty()) << "np=" << np;
    ASSERT_EQ(traced.samples.size(), history.size()) << "np=" << np;
    for (std::size_t i = 0; i < history.size(); ++i) {
      EXPECT_EQ(traced.samples[i].iteration, i) << "np=" << np;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(traced.samples[i].residual),
                std::bit_cast<std::uint64_t>(history[i]))
          << "np=" << np << " i=" << i;
    }
    EXPECT_EQ(traced.signature, plain.signature) << "np=" << np;
    EXPECT_EQ(traced.x_bits, plain.x_bits) << "np=" << np;
    EXPECT_TRUE(hpfcg::msg::counters_identical(traced.total, plain.total))
        << "np=" << np;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, OneSolverTextTest,
    ::testing::Values("cg", "cg_fused", "pcg", "pcg_fused", "bicg",
                      "bicgstab", "bicgstab_fused", "cgs", "gmres", "jacobi"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(ZeroRhs, SerialAndDistAgreeOnAbsoluteResidualBranch) {
  // b = 0 switches the stopping rule to an ABSOLUTE residual (the
  // bnorm > 0 ? rnorm/bnorm : rnorm branch).  Serial and distributed
  // solvers must take the same branch: x0 = 0 means r = 0, so both stop
  // before iterating with relative_residual exactly 0, and the trajectory
  // fingerprints match.
  const auto a = sp::laplacian_2d(6, 6);
  const std::size_t n = a.n_rows();
  const std::vector<double> b_zero(n, 0.0);

  std::vector<double> x_ref(n, 0.0);
  const auto ref = sv::cg(a, b_zero, x_ref, {.track_residuals = true});
  EXPECT_TRUE(ref.converged);
  EXPECT_EQ(ref.iterations, 0u);
  EXPECT_EQ(ref.relative_residual, 0.0);

  std::vector<double> xp_ref(n, 0.0);
  const auto pref = sv::pcg(a, sv::jacobi_preconditioner(a), b_zero, xp_ref,
                            {.track_residuals = true});
  EXPECT_TRUE(pref.converged);
  EXPECT_EQ(pref.relative_residual, 0.0);

  for (const int np : test_machine_sizes()) {
    run_spmd(np, [&](Process& proc) {
      auto dist = share(Distribution::block(n, proc.nprocs()));
      auto mat = sp::DistCsr<double>::row_aligned(proc, a, dist);
      DistributedVector<double> b(proc, dist), x(proc, dist);
      const sv::DistOp<double> op = [&](const DistributedVector<double>& p,
                                        DistributedVector<double>& q) {
        mat.matvec(p, q);
      };
      const auto res =
          sv::cg_dist<double>(op, b, x, {.track_residuals = true});
      EXPECT_TRUE(res.converged);
      EXPECT_EQ(res.iterations, ref.iterations);
      EXPECT_EQ(res.relative_residual, ref.relative_residual);
      EXPECT_EQ(res.residual_signature(), ref.residual_signature());
    });
  }
}

}  // namespace
