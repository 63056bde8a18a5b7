// Server power and energy accounting.
//
// Substitute for the paper's Yokogawa WT210 power meter: a standard linear
// utilization->power model integrated over simulated time. Power is
// strong-typed (sim::Watts in, sim::Joules out), so a power figure can never
// be mixed into a data-size or rate expression (sim/units.h).
#pragma once

#include "sim/event_queue.h"
#include "sim/units.h"
#include "stats/timeseries.h"

namespace hybridmr::cluster {

/// P(u) = idle + (peak - idle) * u for a powered-on server; 0 when off.
struct PowerModel {
  sim::Watts idle_watts{180};
  sim::Watts peak_watts{260};

  /// `utilization` in [0, 1]: blended CPU/I/O activity.
  [[nodiscard]] sim::Watts watts(sim::Fraction utilization) const {
    const double raw = utilization.value();
    const double u = raw < 0 ? 0 : (raw > 1 ? 1 : raw);
    return idle_watts + (peak_watts - idle_watts) * u;
  }
};

/// Integrates instantaneous power into energy (joules).
class EnergyMeter {
 public:
  /// Records that the power level changed to `watts` at time `now`.
  /// Same-instant revisions overwrite (several reallocations at one
  /// simulated time leave one sample holding the final power level).
  void record(sim::SimTime now, sim::Watts watts) {
    series_.add_coalesced(now, watts.value());
  }

  /// Bounds the sample history for long runs; see
  /// stats::TimeSeries::set_max_samples().
  void set_max_samples(std::size_t max) { series_.set_max_samples(max); }

  /// Energy consumed over [t0, t1].
  [[nodiscard]] sim::Joules joules(sim::SimTime t0, sim::SimTime t1) const {
    return sim::Joules{series_.integrate(t0, t1)};
  }

  /// Mean power over [t0, t1] (0 W if the window is empty).
  [[nodiscard]] sim::Watts mean_watts(sim::SimTime t0, sim::SimTime t1) const {
    return t1 > t0 ? joules(t0, t1) / sim::Duration{t1 - t0} : sim::Watts{};
  }

  [[nodiscard]] const stats::TimeSeries& series() const { return series_; }

 private:
  stats::TimeSeries series_;
};

}  // namespace hybridmr::cluster
