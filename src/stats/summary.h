// Descriptive statistics helpers used throughout the harness and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hybridmr::stats {

/// Streaming accumulator for mean / variance (Welford).
class Accumulator {
 public:
  void add(double v);

  [[nodiscard]] double mean() const { return n_ ? mean_ : 0; }
  [[nodiscard]] double variance() const;  // sample variance
  [[nodiscard]] double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

/// Percentile by linear interpolation between closest ranks; p in [0, 100].
double percentile(std::span<const double> values, double p);

/// Mean of a span (0 for empty).
double mean(std::span<const double> values);

}  // namespace hybridmr::stats
