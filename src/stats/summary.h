// Descriptive statistics helpers used throughout the harness and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hybridmr::stats {

/// Streaming accumulator for mean / variance / min / max (Welford).
class Accumulator {
 public:
  void add(double v);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0; }
  [[nodiscard]] double variance() const;  // sample variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Full-sample summary with percentiles.
struct Summary {
  std::size_t count = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;

  static Summary of(std::span<const double> values);
};

/// Percentile by linear interpolation between closest ranks; p in [0, 100].
double percentile(std::span<const double> values, double p);

/// Mean of a span (0 for empty).
double mean(std::span<const double> values);

}  // namespace hybridmr::stats
