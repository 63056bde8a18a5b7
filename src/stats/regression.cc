#include "stats/regression.h"

#include <algorithm>
#include <numeric>

namespace hybridmr::stats {
namespace {

struct LsqFit {
  double slope = 0;
  double intercept = 0;
  double sse = 0;
  bool ok = false;
};

LsqFit least_squares(std::span<const double> x, std::span<const double> y) {
  LsqFit out;
  const std::size_t n = x.size();
  if (n < 2 || y.size() != n) return out;
  const double mx = std::accumulate(x.begin(), x.end(), 0.0) / n;
  const double my = std::accumulate(y.begin(), y.end(), 0.0) / n;
  double sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (sxx <= 0) return out;
  out.slope = sxy / sxx;
  out.intercept = my - out.slope * mx;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = y[i] - (out.intercept + out.slope * x[i]);
    out.sse += e * e;
  }
  out.ok = true;
  return out;
}

}  // namespace

std::optional<LinearRegression> LinearRegression::fit(
    std::span<const double> x, std::span<const double> y) {
  const LsqFit f = least_squares(x, y);
  if (!f.ok) return std::nullopt;
  return LinearRegression(f.slope, f.intercept);
}

std::optional<PiecewiseLinearRegression> PiecewiseLinearRegression::fit(
    std::span<const double> x, std::span<const double> y) {
  const std::size_t n = x.size();
  if (n < 2 || y.size() != n) return std::nullopt;

  // Sort samples by x.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
  std::vector<double> sx(n), sy(n);
  for (std::size_t i = 0; i < n; ++i) {
    sx[i] = x[order[i]];
    sy[i] = y[order[i]];
  }

  const LsqFit whole = least_squares(sx, sy);
  if (!whole.ok) return std::nullopt;

  PiecewiseLinearRegression best;
  best.has_break_ = false;
  best.a0_ = best.a1_ = whole.intercept;
  best.b0_ = best.b1_ = whole.slope;
  double best_sse = whole.sse;

  if (n < 4) return best;

  // Try each interior split; each side needs >= 2 points.
  for (std::size_t k = 2; k + 2 <= n; ++k) {
    std::span<const double> lx(sx.data(), k), ly(sy.data(), k);
    std::span<const double> rx(sx.data() + k, n - k), ry(sy.data() + k, n - k);
    const LsqFit left = least_squares(lx, ly);
    const LsqFit right = least_squares(rx, ry);
    if (!left.ok || !right.ok) continue;
    const double sse = left.sse + right.sse;
    if (sse < best_sse * 0.95) {  // require a real improvement
      best_sse = sse;
      best.has_break_ = true;
      best.breakpoint_ = (sx[k - 1] + sx[k]) / 2;
      best.a0_ = left.intercept;
      best.b0_ = left.slope;
      best.a1_ = right.intercept;
      best.b1_ = right.slope;
    }
  }
  return best;
}

double PiecewiseLinearRegression::predict(double x) const {
  if (!has_break_ || x <= breakpoint_) return a0_ + b0_ * x;
  return a1_ + b1_ * x;
}

std::optional<InverseRegression> InverseRegression::fit(
    std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) return std::nullopt;
  std::vector<double> inv(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] <= 0) return std::nullopt;
    inv[i] = 1.0 / x[i];
  }
  const LsqFit f = least_squares(inv, y);
  if (!f.ok) return std::nullopt;
  return InverseRegression(f.intercept, f.slope);
}

double interpolate(std::span<const double> xs, std::span<const double> ys,
                   double x) {
  if (xs.empty()) return 0;
  if (xs.size() == 1) return ys[0];
  // Find the bracketing segment (xs sorted ascending); extrapolate at ends.
  std::size_t hi = 1;
  while (hi + 1 < xs.size() && xs[hi] < x) ++hi;
  const std::size_t lo = hi - 1;
  const double dx = xs[hi] - xs[lo];
  if (dx == 0) return (ys[lo] + ys[hi]) / 2;
  const double t = (x - xs[lo]) / dx;
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

}  // namespace hybridmr::stats
