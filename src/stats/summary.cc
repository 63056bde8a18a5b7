#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace hybridmr::stats {

void Accumulator::add(double v) {
  ++n_;
  const double delta = v - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (v - mean_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return 0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0;
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

}  // namespace hybridmr::stats
