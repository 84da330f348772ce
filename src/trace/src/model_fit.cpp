#include "hpfcg/trace/model_fit.hpp"

#include <array>
#include <cmath>
#include <cstddef>

namespace hpfcg::trace {

namespace {

/// Solve the 3x3 system A x = b by Gaussian elimination with partial
/// pivoting.  Returns false when A is (numerically) singular.
bool solve3(std::array<std::array<double, 3>, 3> a, std::array<double, 3> b,
            std::array<double, 3>& x) {
  for (int col = 0; col < 3; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 3; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-30) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (int r = 0; r < 3; ++r) {
      if (r == col) continue;
      const double f = a[r][col] / a[col][col];
      for (int c = col; c < 3; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  for (int i = 0; i < 3; ++i) x[i] = b[i] / a[i][i];
  return true;
}

}  // namespace

ModelFit fit_cost_model(std::span<const FitSample> samples,
                        bool with_intercept, bool relative) {
  ModelFit fit;
  if (samples.size() < (with_intercept ? 3U : 2U)) return fit;

  // Weighted normal equations for T = x0·1 + x1·startups + x2·bytes, with
  // the intercept row/column zeroed out when it is excluded.  Relative
  // mode scales each row by 1/T, turning the objective into the sum of
  // squared RELATIVE residuals.
  std::array<std::array<double, 3>, 3> ata{};
  std::array<double, 3> atb{};
  for (const FitSample& s : samples) {
    const double w = relative && s.seconds > 0.0 ? 1.0 / s.seconds : 1.0;
    const std::array<double, 3> row{with_intercept ? w : 0.0,
                                    w * s.startups, w * s.bytes};
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) ata[i][j] += row[i] * row[j];
      atb[i] += row[i] * (w * s.seconds);
    }
  }
  if (!with_intercept) ata[0][0] = 1.0;  // pin x0 = 0

  std::array<double, 3> x{};
  if (!solve3(ata, atb, x)) return fit;
  fit.t_fixed = with_intercept ? x[0] : 0.0;
  fit.t_startup = x[1];
  fit.t_comm = x[2];
  fit.ok = true;

  double sq = 0.0;
  for (const FitSample& s : samples) {
    double e = fit.predict(s.startups, s.bytes) - s.seconds;
    if (relative && s.seconds > 0.0) e /= s.seconds;
    sq += e * e;
  }
  fit.rms_residual = std::sqrt(sq / static_cast<double>(samples.size()));
  return fit;
}

std::vector<FitSample> tree_collective_samples(const RankTrace& trace) {
  std::vector<FitSample> out;
  for (const Span& s : trace.spans()) {
    if (!is_tree_collective(s.kind)) continue;
    // The measuring rank (use rank 0) sees `depth` message events per tree
    // pass, each moving the span's payload.
    FitSample f;
    f.startups = tree_passes(s.kind) * static_cast<double>(s.depth);
    f.bytes = f.startups * static_cast<double>(s.bytes);
    f.seconds = s.seconds();
    out.push_back(f);
  }
  return out;
}

}  // namespace hpfcg::trace
