// Serial solver family: each method must solve SPD systems to tolerance and
// match the direct (Cholesky/Gaussian) ground truth.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "hpfcg/solvers/dense_direct.hpp"
#include "hpfcg/solvers/gmres.hpp"
#include "hpfcg/solvers/preconditioner.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/sparse/generators.hpp"

namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;

namespace {

double max_err(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

struct Problem {
  sp::Csr<double> a;
  std::vector<double> b;
  std::vector<double> x_ref;
};

Problem make_problem(const sp::Csr<double>& a, std::uint64_t seed) {
  Problem prob{a, sp::random_rhs(a.n_rows(), seed), {}};
  prob.x_ref = sv::cholesky_solve(prob.a.to_dense(), prob.b);
  return prob;
}

class SerialSolversTest : public ::testing::Test {
 protected:
  void SetUp() override {
    problems_.push_back(make_problem(sp::laplacian_2d(8, 8), 1));
    problems_.push_back(make_problem(sp::random_spd(70, 6, 2), 2));
    problems_.push_back(make_problem(sp::tridiagonal(50, 3.0, -1.0), 3));
  }
  std::vector<Problem> problems_;
};

TEST_F(SerialSolversTest, CgSolvesSpdSystems) {
  for (const auto& prob : problems_) {
    std::vector<double> x(prob.b.size(), 0.0);
    const auto res = sv::cg(prob.a, prob.b, x, {.rel_tolerance = 1e-12});
    EXPECT_TRUE(res.converged);
    EXPECT_FALSE(res.breakdown);
    EXPECT_LT(res.relative_residual, 1e-11);
    EXPECT_LT(max_err(x, prob.x_ref), 1e-8);
  }
}

TEST_F(SerialSolversTest, BicgMatchesCgOnSymmetricSystems) {
  // For symmetric A with rt0 = r0, BiCG reduces to CG: same iterate count
  // and (to roundoff) the same residual sequence.
  for (const auto& prob : problems_) {
    std::vector<double> x_cg(prob.b.size(), 0.0), x_bicg(prob.b.size(), 0.0);
    sv::SolveOptions opts{.rel_tolerance = 1e-10, .track_residuals = true};
    const auto r_cg = sv::cg(prob.a, prob.b, x_cg, opts);
    const auto r_bicg = sv::bicg(prob.a, prob.b, x_bicg, opts);
    EXPECT_TRUE(r_bicg.converged);
    EXPECT_EQ(r_cg.iterations, r_bicg.iterations);
    ASSERT_EQ(r_cg.residual_history.size(), r_bicg.residual_history.size());
    for (std::size_t k = 0; k < r_cg.residual_history.size(); ++k) {
      EXPECT_NEAR(r_cg.residual_history[k], r_bicg.residual_history[k],
                  1e-6 * (1.0 + r_cg.residual_history[k]));
    }
  }
}

TEST_F(SerialSolversTest, CgsSolvesSpdSystems) {
  for (const auto& prob : problems_) {
    std::vector<double> x(prob.b.size(), 0.0);
    const auto res = sv::cgs(prob.a, prob.b, x, {.rel_tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    EXPECT_LT(max_err(x, prob.x_ref), 1e-6);
  }
}

TEST_F(SerialSolversTest, BicgstabSolvesSpdSystems) {
  for (const auto& prob : problems_) {
    std::vector<double> x(prob.b.size(), 0.0);
    const auto res = sv::bicgstab(prob.a, prob.b, x, {.rel_tolerance = 1e-10});
    EXPECT_TRUE(res.converged);
    EXPECT_LT(max_err(x, prob.x_ref), 1e-6);
  }
}

TEST_F(SerialSolversTest, EveryOtherRecurrenceMatchesCholesky) {
  // The recurrences without a Cholesky check above: fused CG, PCG and fused
  // PCG with Jacobi, fused BiCGSTAB and GMRES(30).
  const sv::SolveOptions opts{.rel_tolerance = 1e-12};
  for (const auto& prob : problems_) {
    const auto jacobi = sv::jacobi_preconditioner(prob.a);
    using Solve = std::function<sv::SolveResult(std::span<double>)>;
    const std::vector<std::pair<const char*, Solve>> solvers{
        {"cg_fused",
         [&](auto x) { return sv::cg_fused(prob.a, prob.b, x, opts); }},
        {"pcg",
         [&](auto x) { return sv::pcg(prob.a, jacobi, prob.b, x, opts); }},
        {"pcg_fused",
         [&](auto x) {
           return sv::pcg_fused(prob.a, jacobi, prob.b, x, opts);
         }},
        {"bicgstab_fused",
         [&](auto x) { return sv::bicgstab_fused(prob.a, prob.b, x, opts); }},
        {"gmres",
         [&](auto x) {
           return sv::gmres(prob.a, prob.b, x, {.base = opts, .restart = 30});
         }},
    };
    for (const auto& [name, solve] : solvers) {
      std::vector<double> x(prob.b.size(), 0.0);
      const auto res = solve(x);
      EXPECT_TRUE(res.converged) << name;
      EXPECT_LT(max_err(x, prob.x_ref), 1e-8) << name;
    }
  }
}

TEST_F(SerialSolversTest, JacobiPcgConvergesFasterOnScaledSystems) {
  // Badly scaled diagonal: plain CG struggles, Jacobi fixes the scaling.
  const std::size_t n = 80;
  sp::Coo<double> coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = 1.0 + static_cast<double>(i % 10) * 1000.0;
    coo.add(i, i, d);
    if (i + 1 < n) coo.add_sym(i, i + 1, -0.3);
  }
  const auto a = sp::Csr<double>::from_coo(std::move(coo));
  const auto b = sp::random_rhs(n, 5);

  std::vector<double> x0(n, 0.0), x1(n, 0.0);
  const auto plain = sv::cg(a, b, x0, {.max_iterations = 500,
                                       .rel_tolerance = 1e-12});
  const auto prec = sv::pcg(a, sv::jacobi_preconditioner(a), b, x1,
                            {.max_iterations = 500, .rel_tolerance = 1e-12});
  EXPECT_TRUE(prec.converged);
  EXPECT_LT(prec.iterations, plain.iterations);
}

TEST_F(SerialSolversTest, SsorPcgReducesIterationsOnLaplacian) {
  const auto a = sp::laplacian_2d(16, 16);
  const auto b = sp::random_rhs(a.n_rows(), 6);
  std::vector<double> x0(b.size(), 0.0), x1(b.size(), 0.0);
  sv::SolveOptions opts{.max_iterations = 2000, .rel_tolerance = 1e-10};
  const auto plain = sv::cg(a, b, x0, opts);
  const auto ssor = sv::pcg(a, sv::ssor_preconditioner(a, 1.2), b, x1, opts);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(ssor.converged);
  EXPECT_LT(ssor.iterations, plain.iterations);
  // Both converge to the same solution.
  EXPECT_LT(max_err(x0, x1), 1e-6);
}

TEST_F(SerialSolversTest, IdentityPreconditionerReproducesCg) {
  const auto& prob = problems_[0];
  std::vector<double> x_cg(prob.b.size(), 0.0), x_pcg(prob.b.size(), 0.0);
  sv::SolveOptions opts{.rel_tolerance = 1e-10, .track_residuals = true};
  const auto r1 = sv::cg(prob.a, prob.b, x_cg, opts);
  const auto r2 =
      sv::pcg(prob.a, sv::identity_preconditioner(), prob.b, x_pcg, opts);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_LT(max_err(x_cg, x_pcg), 1e-10);
}

TEST(SerialSolvers, ZeroRhsConvergesImmediately) {
  const auto a = sp::tridiagonal(10, 2.0, -1.0);
  std::vector<double> b(10, 0.0), x(10, 1.0);
  // With b = 0, the criterion is absolute: starting from x=1 CG must still
  // drive the residual to zero (solution x = 0).
  const auto res = sv::cg(a, b, x, {.rel_tolerance = 1e-12});
  EXPECT_TRUE(res.converged);
  for (const double v : x) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(SerialSolvers, WarmStartAtSolutionTakesZeroIterations) {
  const auto a = sp::tridiagonal(20, 2.0, -1.0);
  const auto b = sp::random_rhs(20, 9);
  std::vector<double> x(20, 0.0);
  (void)sv::cg(a, b, x, {.rel_tolerance = 1e-13});
  std::vector<double> x2 = x;
  const auto res = sv::cg(a, b, x2, {.rel_tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
}

TEST(SerialSolvers, MaxIterationsRespected) {
  const auto a = sp::laplacian_2d(12, 12);
  const auto b = sp::random_rhs(a.n_rows(), 11);
  std::vector<double> x(b.size(), 0.0);
  const auto res = sv::cg(a, b, x, {.max_iterations = 3,
                                    .rel_tolerance = 1e-14});
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3u);
}

TEST(SerialSolvers, ResidualHistoryIsMonotoneForCg) {
  // CG minimizes the A-norm of the error; the 2-norm residual of these
  // well-conditioned SPD systems decreases monotonically in practice.
  const auto a = sp::tridiagonal(60, 4.0, -1.0);
  const auto b = sp::random_rhs(60, 13);
  std::vector<double> x(60, 0.0);
  const auto res = sv::cg(a, b, x, {.rel_tolerance = 1e-12,
                                    .track_residuals = true});
  ASSERT_GT(res.residual_history.size(), 2u);
  for (std::size_t k = 1; k < res.residual_history.size(); ++k) {
    EXPECT_LE(res.residual_history[k], res.residual_history[k - 1] * 1.0001);
  }
}

TEST(DenseDirect, GaussianAndCholeskyAgree) {
  const auto a = sp::random_spd(40, 8, 15);
  const auto dense = a.to_dense();
  const auto b = sp::random_rhs(40, 16);
  const auto xg = sv::gaussian_solve(dense, b);
  const auto xc = sv::cholesky_solve(dense, b);
  EXPECT_LT(max_err(xg, xc), 1e-9);
  // Verify against the residual directly.
  std::vector<double> q(40);
  a.matvec(xg, q);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_NEAR(q[i], b[i], 1e-9);
}

TEST(DenseDirect, CholeskyRejectsIndefiniteMatrix) {
  const std::vector<double> indef = {1.0, 2.0, 2.0, 1.0};  // eigenvalues 3,-1
  const std::vector<double> b = {1.0, 1.0};
  EXPECT_THROW((void)sv::cholesky_solve(indef, b), hpfcg::util::Error);
}

TEST(DenseDirect, GaussianRejectsSingularMatrix) {
  const std::vector<double> sing = {1.0, 2.0, 2.0, 4.0};
  const std::vector<double> b = {1.0, 1.0};
  EXPECT_THROW((void)sv::gaussian_solve(sing, b), hpfcg::util::Error);
}

TEST(DenseDirect, FlopModels) {
  EXPECT_GT(sv::cholesky_flops(100), 1e5 / 3);
  EXPECT_DOUBLE_EQ(sv::cg_flops(10, 50, 3), 3 * (100.0 + 100.0));
}

}  // namespace
