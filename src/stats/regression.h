// Regression models used by HybridMR's Estimator (paper §III-B1/B2):
//   - linear regression          -> CPU interference / JCT-vs-data-size
//   - piecewise-linear (1 knee)  -> memory interference
//   - exponential                -> I/O interference
// plus an inverse model (y = a + b/x) for JCT-vs-cluster-size extrapolation.
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
  [[nodiscard]] double intercept() const { return intercept_; }
  /// Coefficient of determination on the training data.
  [[nodiscard]] double r_squared() const { return r2_; }

 private:
  LinearRegression(double slope, double intercept, double r2)
      : slope_(slope), intercept_(intercept), r2_(r2) {}
  double slope_;
  double intercept_;
  double r2_;
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
  [[nodiscard]] double r_squared() const { return r2_; }

 private:
  PiecewiseLinearRegression() = default;
  bool has_break_ = false;
  double breakpoint_ = 0;
  // left: y = a0 + b0 x (x <= breakpoint); right: y = a1 + b1 x
  double a0_ = 0, b0_ = 0, a1_ = 0, b1_ = 0;
  double r2_ = 0;
};

/// Exponential model y = a * exp(b * x), fit by log-linear least squares.
/// All y must be > 0.
class ExponentialRegression {
 public:
  static std::optional<ExponentialRegression> fit(std::span<const double> x,
                                                  std::span<const double> y);

  [[nodiscard]] double predict(double x) const;
  [[nodiscard]] double a() const { return a_; }
  [[nodiscard]] double b() const { return b_; }
  [[nodiscard]] double r_squared() const { return r2_; }

 private:
  ExponentialRegression(double a, double b, double r2)
      : a_(a), b_(b), r2_(r2) {}
  double a_;
  double b_;
  double r2_;  // in log space
};

/// Inverse model y = a + b / x (JCT vs cluster size; paper Fig. 5(a,b)).
/// Fit by linear regression on (1/x, y). All x must be > 0.
class InverseRegression {
 public:
  static std::optional<InverseRegression> fit(std::span<const double> x,
                                              std::span<const double> y);

  [[nodiscard]] double predict(double x) const { return a_ + b_ / x; }
  [[nodiscard]] double a() const { return a_; }
  [[nodiscard]] double b() const { return b_; }
  [[nodiscard]] double r_squared() const { return r2_; }

 private:
  InverseRegression(double a, double b, double r2) : a_(a), b_(b), r2_(r2) {}
  double a_;
  double b_;
  double r2_;
};

/// Linear interpolation/extrapolation through a sorted table of (x, y).
/// Used by the profiler when only two neighbouring profile points exist.
double interpolate(std::span<const double> xs, std::span<const double> ys,
                   double x);

}  // namespace hybridmr::stats
