// Tests for the least-squares cost-model fit: exact recovery of synthetic
// parameters, degenerate-design rejection, intercept pinning, and the
// span -> FitSample derivation for tree collectives.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <span>
#include <vector>

#include "hpfcg/trace/model_fit.hpp"
#include "hpfcg/trace/span.hpp"

namespace trace = hpfcg::trace;

namespace {

/// Synthetic samples generated from known parameters over a grid of
/// (startups, bytes) designs; deterministic, noise-free.
std::vector<trace::FitSample> synthetic(double t_fixed, double t_startup,
                                        double t_comm) {
  std::vector<trace::FitSample> out;
  for (const double d : {1.0, 2.0, 3.0, 4.0, 6.0}) {
    for (const double b : {8.0, 128.0, 2048.0, 32768.0}) {
      trace::FitSample s;
      s.startups = d;
      s.bytes = d * b;
      s.seconds = t_fixed + t_startup * s.startups + t_comm * s.bytes;
      out.push_back(s);
    }
  }
  return out;
}

TEST(ModelFit, RecoversExactSyntheticParameters) {
  const double t_fixed = 2e-6, t_startup = 50e-6, t_comm = 10e-9;
  const auto samples = synthetic(t_fixed, t_startup, t_comm);
  const trace::ModelFit fit = trace::fit_cost_model(samples);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.t_fixed, t_fixed, 1e-12);
  EXPECT_NEAR(fit.t_startup, t_startup, 1e-12);
  EXPECT_NEAR(fit.t_comm, t_comm, 1e-15);
  EXPECT_NEAR(fit.rms_residual, 0.0, 1e-12);
  EXPECT_NEAR(fit.predict(4.0, 4096.0),
              t_fixed + 4.0 * t_startup + 4096.0 * t_comm, 1e-12);
}

TEST(ModelFit, TooFewSamplesIsNotOk) {
  std::vector<trace::FitSample> two(2);
  two[0] = {1.0, 8.0, 1e-4};
  two[1] = {2.0, 16.0, 2e-4};
  EXPECT_FALSE(trace::fit_cost_model(two).ok);
  EXPECT_FALSE(trace::fit_cost_model(std::span<const trace::FitSample>{}).ok);
}

TEST(ModelFit, CollinearDesignIsNotOk) {
  // bytes strictly proportional to startups: the two predictors are
  // indistinguishable and the normal equations are singular.
  std::vector<trace::FitSample> bad;
  for (const double d : {1.0, 2.0, 3.0, 4.0}) {
    bad.push_back({d, 64.0 * d, 1e-5 * d});
  }
  EXPECT_FALSE(trace::fit_cost_model(bad).ok);
}

TEST(ModelFit, RelativeWeightingRecoversExactDataIdentically) {
  // On noise-free data the 1/T weighting changes nothing: both objectives
  // are minimized at zero residual, so the recovered parameters agree.
  const double t_fixed = 2e-6, t_startup = 50e-6, t_comm = 10e-9;
  const auto samples = synthetic(t_fixed, t_startup, t_comm);
  const trace::ModelFit fit =
      trace::fit_cost_model(samples, /*with_intercept=*/true,
                            /*relative=*/true);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.t_fixed, t_fixed, 1e-12);
  EXPECT_NEAR(fit.t_startup, t_startup, 1e-12);
  EXPECT_NEAR(fit.t_comm, t_comm, 1e-15);
  // rms_residual is the RELATIVE error here — still zero on exact data.
  EXPECT_NEAR(fit.rms_residual, 0.0, 1e-9);
}

TEST(ModelFit, RelativeWeightingOptimizesRelativeResiduals) {
  // Each mode is the exact minimizer of its own objective, so on noisy
  // data where the two solutions differ, the relative fit must achieve a
  // strictly smaller sum of squared RELATIVE residuals and the absolute
  // fit a strictly smaller sum of squared ABSOLUTE residuals.
  std::vector<trace::FitSample> samples = synthetic(0.0, 1e-6, 1e-9);
  samples[0].seconds *= 3.0;   // inflate the smallest config (d=1, b=8)
  samples.back().seconds *= 1.1;  // and nudge the largest
  const trace::ModelFit abs_fit = trace::fit_cost_model(samples);
  const trace::ModelFit rel_fit =
      trace::fit_cost_model(samples, /*with_intercept=*/true,
                            /*relative=*/true);
  ASSERT_TRUE(abs_fit.ok);
  ASSERT_TRUE(rel_fit.ok);
  const auto sq_residuals = [&samples](const trace::ModelFit& f,
                                       bool relative) {
    double sq = 0.0;
    for (const auto& s : samples) {
      double e = f.predict(s.startups, s.bytes) - s.seconds;
      if (relative) e /= s.seconds;
      sq += e * e;
    }
    return sq;
  };
  EXPECT_LT(sq_residuals(rel_fit, true), sq_residuals(abs_fit, true));
  EXPECT_LT(sq_residuals(abs_fit, false), sq_residuals(rel_fit, false));
  // And rms_residual reports in the mode's own currency.
  EXPECT_NEAR(rel_fit.rms_residual,
              std::sqrt(sq_residuals(rel_fit, true) /
                        static_cast<double>(samples.size())),
              1e-12);
}

TEST(ModelFit, WithoutInterceptPinsFixedTerm) {
  const double t_startup = 40e-6, t_comm = 8e-9;
  const auto samples = synthetic(0.0, t_startup, t_comm);
  const trace::ModelFit fit =
      trace::fit_cost_model(samples, /*with_intercept=*/false);
  ASSERT_TRUE(fit.ok);
  EXPECT_EQ(fit.t_fixed, 0.0);
  EXPECT_NEAR(fit.t_startup, t_startup, 1e-12);
  EXPECT_NEAR(fit.t_comm, t_comm, 1e-15);
}

trace::Span tree_span(trace::SpanKind kind, std::uint16_t depth,
                      std::uint64_t bytes, std::uint64_t dur_ns) {
  trace::Span s;
  s.kind = kind;
  s.depth = depth;
  s.bytes = bytes;
  s.t0_ns = 1000;
  s.t1_ns = 1000 + dur_ns;
  return s;
}

TEST(ModelFit, TreeCollectiveSamplesCountPassesPerClass) {
  trace::RankTrace t(16, std::chrono::steady_clock::now());
  // Allreduce-class: up + down the tree -> 2·depth startups.
  t.record(tree_span(trace::SpanKind::kAllreduceBatch, 3, 24, 5000));
  // The vector merge is allreduce-class too: 2·depth startups.
  t.record(tree_span(trace::SpanKind::kAllreduceVec, 3, 8, 2000));
  // Broadcast-class: one pass.
  t.record(tree_span(trace::SpanKind::kBroadcast, 2, 80, 1500));
  // Non-tree spans are ignored entirely.
  t.record(tree_span(trace::SpanKind::kSend, 0, 64, 100));
  t.record(tree_span(trace::SpanKind::kBarrier, 3, 0, 300));
  t.record(tree_span(trace::SpanKind::kIteration, 0, 0, 9000));

  const auto samples = trace::tree_collective_samples(t);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].startups, 6.0);
  EXPECT_DOUBLE_EQ(samples[0].bytes, 6.0 * 24.0);
  EXPECT_DOUBLE_EQ(samples[0].seconds, 5e-6);
  EXPECT_DOUBLE_EQ(samples[1].startups, 6.0);
  EXPECT_DOUBLE_EQ(samples[1].bytes, 6.0 * 8.0);
  EXPECT_DOUBLE_EQ(samples[2].startups, 2.0);
  EXPECT_DOUBLE_EQ(samples[2].bytes, 2.0 * 80.0);
}

TEST(ModelFit, ReproMergeCountsBothTreePasses) {
  // allreduce_acc walks the tree up to rank 0 and back down, like every
  // other all-reduce, so its span pays 2·depth start-ups.
  trace::RankTrace t(4, std::chrono::steady_clock::now());
  t.record(tree_span(trace::SpanKind::kReproMerge, 3, 560, 7000));
  const auto samples = trace::tree_collective_samples(t);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].startups, 6.0);
  EXPECT_DOUBLE_EQ(samples[0].bytes, 6.0 * 560.0);
}

TEST(ModelFit, FitFromDerivedSamplesRoundTrips) {
  // Build spans whose durations follow the model exactly, derive samples,
  // fit, and check the parameters come back.
  const double t_fixed = 1e-6, t_startup = 30e-6, t_comm = 5e-9;
  trace::RankTrace t(64, std::chrono::steady_clock::now());
  for (const std::uint16_t d : {std::uint16_t{1}, std::uint16_t{2},
                                std::uint16_t{3}}) {
    for (const std::uint64_t b : {std::uint64_t{8}, std::uint64_t{256},
                                  std::uint64_t{4096}}) {
      const double start = 2.0 * d;
      const double secs = t_fixed + t_startup * start +
                          t_comm * start * static_cast<double>(b);
      t.record(tree_span(trace::SpanKind::kAllreduceBatch, d, b,
                         static_cast<std::uint64_t>(secs * 1e9)));
    }
  }
  const auto samples = trace::tree_collective_samples(t);
  ASSERT_EQ(samples.size(), 9u);
  const trace::ModelFit fit = trace::fit_cost_model(samples);
  ASSERT_TRUE(fit.ok);
  // Durations were quantized to whole nanoseconds, so allow that much.
  EXPECT_NEAR(fit.t_startup, t_startup, 1e-6);
  EXPECT_NEAR(fit.t_comm, t_comm, 1e-10);
}

}  // namespace
