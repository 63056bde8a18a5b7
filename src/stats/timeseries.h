// Time-stamped sample series, used by resource profilers, SLA monitors and
// the energy meter.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hybridmr::stats {

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
  /// merged into time-weighted means, preserving integrate() exactly and
  /// value_at() for times at/after the merged region's end. Long runs
  /// thus keep O(max) memory at geometrically coarsening resolution.
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
