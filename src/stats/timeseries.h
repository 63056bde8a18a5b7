// Time-stamped sample series, used by resource profilers, SLA monitors and
// the energy meter.
#pragma once

#include <algorithm>
#include <cstddef>
#include <ranges>
#include <span>
#include <vector>

namespace hybridmr::stats {

// The series algorithms, over any time-ordered run of `n` samples read
// through `time(i)` and `value(i)`. TimeSeries answers through them, and so
// does each column of a many-column log (a machine's sample log), which
// therefore answers exactly as a TimeSeries of that column would.

/// Mean of the values with time in [t0, t1]; 0 if no sample is in range.
template <class Time, class Value>
double series_mean_in(std::size_t n, Time time, Value value, double t0,
                      double t1) {
  // The samples are time-ordered, so the window is one run: from the first
  // sample at or after t0 to the last at or before t1.
  std::size_t i = *std::ranges::partition_point(
      std::views::iota(std::size_t{0}, n),
      [&time, t0](std::size_t k) { return !(time(k) >= t0); });
  double sum = 0;
  std::size_t count = 0;
  for (; i < n && time(i) <= t1; ++i) {
    sum += value(i);
    ++count;
  }
  return count ? sum / static_cast<double>(count) : 0;
}

/// Time integral over [t0, t1] of the step function the samples define
/// (each sample holds its value until the next one).
template <class Time, class Value>
double series_integrate(std::size_t n, Time time, Value value, double t0,
                        double t1) {
  if (n == 0 || t1 <= t0) return 0;
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double seg_start = std::max(time(i), t0);
    const double seg_end = std::min(i + 1 < n ? time(i + 1) : t1, t1);
    if (seg_end > seg_start) total += value(i) * (seg_end - seg_start);
  }
  return total;
}

/// The value that sample a, held for `wa`, and sample b, held for `wb`,
/// merge into: their time-weighted mean.
inline double merged_value(double a, double wa, double b, double wb) {
  const double w = wa + wb;
  return w > 0 ? (a * wa + b * wb) / w : b;
}

/// Halves the resolution of all but the most recent samples: adjacent
/// pairs (i, i+1) merge into one sample at i's time whose value is the
/// time-weighted mean of i over [i, i+1) and i+1 over [i+1, i+2), so the
/// step function's integral over the merged span is unchanged. The final
/// one or two samples are kept verbatim. `merge(out, i, wa, wb)` writes
/// that merge into slot `out` (never past i), `keep(out, i)` copies sample
/// i there. Returns the new count; fewer than 4 samples stay as they are.
template <class Time, class Merge, class Keep>
std::size_t series_compact(std::size_t n, Time time, Merge merge, Keep keep) {
  if (n < 4) return n;
  std::size_t out = 0;
  std::size_t i = 0;
  for (; i + 2 < n; i += 2) {
    merge(out++, i, time(i + 1) - time(i), time(i + 2) - time(i + 1));
  }
  for (; i < n; ++i) keep(out++, i);
  return out;
}

/// Append-only series of (time, value) samples with monotone timestamps.
class TimeSeries {
 public:
  struct Sample {
    double time;
    double value;
  };

  void add(double time, double value);

  /// Like add(), but when `time` equals the last sample's timestamp the
  /// last sample is overwritten instead of appended: several updates at
  /// one simulated instant collapse to the final value, so the series
  /// looks the same whether the writer recomputed once or k times.
  void add_coalesced(double time, double value);

  /// Bounds the stored sample count. When an add would exceed `max`
  /// (min 8; 0 disables the bound), older adjacent samples are pairwise
  /// merged into time-weighted means (series_compact), preserving
  /// integrate() exactly and value_at() for times at/after the merged
  /// region's end. Long runs thus keep O(max) memory at geometrically
  /// coarsening resolution.
  void set_max_samples(std::size_t max);

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] const Sample& back() const { return samples_.back(); }

  /// Mean of values with time in [t0, t1]; 0 if no samples in range.
  [[nodiscard]] double mean_in(double t0, double t1) const;

  /// Latest value at or before `t` (0 before the first sample).
  // sim-lint: allow(unused-api) realloc_test: compaction keeps values
  [[nodiscard]] double value_at(double t) const;

  /// Time integral of the step function defined by the samples over
  /// [t0, t1] (each sample holds its value until the next sample).
  [[nodiscard]] double integrate(double t0, double t1) const;

  /// Values only.
  [[nodiscard]] std::vector<double> values() const;

 private:
  // Halves the resolution of everything but the most recent samples; see
  // set_max_samples().
  void compact();

  std::vector<Sample> samples_;
  std::size_t max_samples_ = 0;
};

}  // namespace hybridmr::stats
