#include "stats/timeseries.h"

#include <algorithm>
#include <cassert>

namespace hybridmr::stats {

void TimeSeries::add(double time, double value) {
  assert(samples_.empty() || time >= samples_.back().time);
  if (max_samples_ != 0 && samples_.size() >= max_samples_) compact();
  samples_.push_back({time, value});
}

void TimeSeries::add_coalesced(double time, double value) {
  assert(samples_.empty() || time >= samples_.back().time);
  if (!samples_.empty() && !(time > samples_.back().time)) {
    samples_.back().value = value;
    return;
  }
  add(time, value);
}

void TimeSeries::set_max_samples(std::size_t max) {
  max_samples_ = max == 0 ? 0 : std::max<std::size_t>(max, 8);
  if (max_samples_ != 0) {
    while (samples_.size() > max_samples_) compact();
  }
}

void TimeSeries::compact() {
  samples_.resize(series_compact(
      samples_.size(), [this](std::size_t i) { return samples_[i].time; },
      [this](std::size_t out, std::size_t i, double wa, double wb) {
        samples_[out] = {samples_[i].time,
                         merged_value(samples_[i].value, wa,
                                      samples_[i + 1].value, wb)};
      },
      [this](std::size_t out, std::size_t i) { samples_[out] = samples_[i]; }));
}

double TimeSeries::mean_in(double t0, double t1) const {
  return series_mean_in(
      samples_.size(), [this](std::size_t i) { return samples_[i].time; },
      [this](std::size_t i) { return samples_[i].value; }, t0, t1);
}

double TimeSeries::value_at(double t) const {
  double v = 0;
  for (const auto& s : samples_) {
    if (s.time > t) break;
    v = s.value;
  }
  return v;
}

double TimeSeries::integrate(double t0, double t1) const {
  return series_integrate(
      samples_.size(), [this](std::size_t i) { return samples_[i].time; },
      [this](std::size_t i) { return samples_[i].value; }, t0, t1);
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) out.push_back(s.value);
  return out;
}

}  // namespace hybridmr::stats
