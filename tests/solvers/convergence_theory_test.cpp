// The CG convergence theory the paper states (Section 2.1): "The CG
// algorithm will generally converge to the solution ... in at most n_e
// iterations, where n_e is the number of distinct eigenvalues", and
// preconditioning raises the convergence speed.

#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "hpfcg/solvers/gmres.hpp"
#include "hpfcg/solvers/preconditioner.hpp"
#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/sparse/generators.hpp"

namespace sv = hpfcg::solvers;
namespace sp = hpfcg::sparse;

namespace {

std::size_t cg_iterations(const sp::Csr<double>& a,
                          const std::vector<double>& b) {
  std::vector<double> x(b.size(), 0.0);
  const auto res = sv::cg(a, b, x, {.max_iterations = 10 * b.size(),
                                    .rel_tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  return res.iterations;
}

/// Diagonal matrix of size 60 with `ne` distinct eigenvalues.
sp::Csr<double> distinct_spectrum(int ne) {
  std::vector<double> eigs(60);
  for (std::size_t i = 0; i < eigs.size(); ++i) {
    eigs[i] = 1.0 + static_cast<double>(i % static_cast<std::size_t>(ne)) *
                        3.0;  // ne distinct values
  }
  return sp::diagonal_spectrum(eigs);
}

class DistinctEigenvaluesTest : public ::testing::TestWithParam<int> {};

TEST_P(DistinctEigenvaluesTest, IterationsBoundedByDistinctEigenvalueCount) {
  // Diagonal matrix of size 60 with n_e distinct eigenvalues: CG must stop
  // within n_e iterations (exact arithmetic; +1 slack for roundoff).
  const int ne = GetParam();
  const auto a = distinct_spectrum(ne);
  const auto b = sp::random_rhs(a.n_rows(), 77);
  const std::size_t iters = cg_iterations(a, b);
  EXPECT_LE(iters, static_cast<std::size_t>(ne) + 1)
      << "CG must converge in at most n_e (+roundoff) iterations";
  // And with a generic right-hand side it should need about that many.
  EXPECT_GE(iters, static_cast<std::size_t>(ne) - 1);
}

TEST_P(DistinctEigenvaluesTest, EveryOtherRecurrenceSharesTheBound) {
  // The bound belongs to the Krylov space, not to one recurrence: the fused
  // CG, PCG and fused PCG with the identity, BiCG (CG on a symmetric A) and
  // GMRES(30) reach the tolerance in n_e iterations too (+-1 for roundoff).
  const int ne = GetParam();
  const auto a = distinct_spectrum(ne);
  const auto b = sp::random_rhs(a.n_rows(), 77);
  const sv::SolveOptions opts{.max_iterations = 600, .rel_tolerance = 1e-10};
  const auto identity = sv::identity_preconditioner();
  using Solve = std::function<sv::SolveResult(std::span<double>)>;
  const std::vector<std::pair<const char*, Solve>> solvers{
      {"cg_fused", [&](auto x) { return sv::cg_fused(a, b, x, opts); }},
      {"pcg", [&](auto x) { return sv::pcg(a, identity, b, x, opts); }},
      {"pcg_fused",
       [&](auto x) { return sv::pcg_fused(a, identity, b, x, opts); }},
      {"bicg", [&](auto x) { return sv::bicg(a, b, x, opts); }},
      {"gmres",
       [&](auto x) {
         return sv::gmres(a, b, x, {.base = opts, .restart = 30});
       }},
  };
  for (const auto& [name, solve] : solvers) {
    std::vector<double> x(b.size(), 0.0);
    const auto res = solve(x);
    EXPECT_TRUE(res.converged) << name;
    EXPECT_LE(res.iterations, static_cast<std::size_t>(ne) + 1) << name;
    EXPECT_GE(res.iterations, static_cast<std::size_t>(ne) - 1) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(EigenvalueCounts, DistinctEigenvaluesTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(ConvergenceTheory, IdentityConvergesInOneIteration) {
  const auto a = sp::diagonal_spectrum(std::vector<double>(32, 2.5));
  const auto b = sp::random_rhs(32, 3);
  EXPECT_LE(cg_iterations(a, b), 1u);
}

TEST(ConvergenceTheory, ExactArithmeticBoundNIterations) {
  // Full-rank SPD system of size n: at most n iterations (+slack).
  const auto a = sp::random_spd(40, 6, 55);
  const auto b = sp::random_rhs(40, 56);
  EXPECT_LE(cg_iterations(a, b), 42u);
}

TEST(ConvergenceTheory, WiderSpectrumNeedsMoreIterations) {
  // The paper: "in cases where A has many distinct eigenvalues and those
  // eigenvalues vary widely in magnitude, the CG algorithm may require a
  // large number of iterations".
  const std::size_t n = 64;
  std::vector<double> tight(n), wide(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    tight[i] = 1.0 + t;              // condition number 2
    wide[i] = 1.0 + 9999.0 * t;      // condition number 10^4
  }
  const auto b = sp::random_rhs(n, 21);
  const auto it_tight = cg_iterations(sp::diagonal_spectrum(tight), b);
  const auto it_wide = cg_iterations(sp::diagonal_spectrum(wide), b);
  EXPECT_LT(it_tight, it_wide);
}

TEST(ConvergenceTheory, JacobiCollapsesDiagonalSpectrumToOneIteration) {
  // Jacobi preconditioning of a diagonal matrix yields the identity — the
  // limiting case of "a preconditioner ... will increase the speed of
  // convergence".
  const std::size_t n = 48;
  std::vector<double> eigs(n);
  for (std::size_t i = 0; i < n; ++i) eigs[i] = 1.0 + static_cast<double>(i);
  const auto a = sp::diagonal_spectrum(eigs);
  const auto b = sp::random_rhs(n, 8);
  std::vector<double> x(n, 0.0);
  const auto res = sv::pcg(a, sv::jacobi_preconditioner(a), b, x,
                           {.rel_tolerance = 1e-12});
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 2u);
}

}  // namespace
