// Regression models behind Phase I's JCT estimation (paper §III-A,
// Algorithm 1, Fig. 5):
//   - linear regression          -> JCT vs data size
//   - inverse (y = a + b/x)      -> map time vs cluster size
//   - piecewise-linear (1 knee)  -> reduce time vs cluster size
// plus linear interpolation for when a fit is degenerate.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace hybridmr::stats {

/// Ordinary least squares y = intercept + slope * x.
class LinearRegression {
 public:
  /// Fits to paired samples. Requires >= 2 points with non-degenerate x;
  /// returns nullopt otherwise.
  static std::optional<LinearRegression> fit(std::span<const double> x,
                                             std::span<const double> y);

  [[nodiscard]] double predict(double x) const {
    return intercept_ + slope_ * x;
  }
  [[nodiscard]] double slope() const { return slope_; }

 private:
  LinearRegression(double slope, double intercept)
      : slope_(slope), intercept_(intercept) {}
  double slope_;
  double intercept_;
};

/// Two-segment continuous piecewise-linear model with a fitted breakpoint.
/// The breakpoint is chosen among interior sample x-values to minimize SSE.
class PiecewiseLinearRegression {
 public:
  /// Requires >= 4 points; falls back to a single segment when no interior
  /// breakpoint improves on plain linear. Returns nullopt on degenerate data.
  static std::optional<PiecewiseLinearRegression> fit(
      std::span<const double> x, std::span<const double> y);

  [[nodiscard]] double predict(double x) const;
  [[nodiscard]] double breakpoint() const { return breakpoint_; }
  // sim-lint: allow(unused-api) stats_test: breakpoint detection
  [[nodiscard]] bool has_break() const { return has_break_; }

 private:
  PiecewiseLinearRegression() = default;
  bool has_break_ = false;
  double breakpoint_ = 0;
  // left: y = a0 + b0 x (x <= breakpoint); right: y = a1 + b1 x
  double a0_ = 0, b0_ = 0, a1_ = 0, b1_ = 0;
};

/// Inverse model y = a + b / x (JCT vs cluster size; paper Fig. 5(a,b)).
/// Fit by linear regression on (1/x, y). All x must be > 0.
class InverseRegression {
 public:
  static std::optional<InverseRegression> fit(std::span<const double> x,
                                              std::span<const double> y);

  [[nodiscard]] double predict(double x) const { return a_ + b_ / x; }

 private:
  InverseRegression(double a, double b) : a_(a), b_(b) {}
  double a_;
  double b_;
};

/// Linear interpolation/extrapolation through a sorted table of (x, y).
/// Used by the profiler when only two neighbouring profile points exist.
double interpolate(std::span<const double> xs, std::span<const double> ys,
                   double x);

}  // namespace hybridmr::stats
