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
  const std::size_t n = samples_.size();
  if (n < 4) return;
  // Merge adjacent pairs (a, b) into one sample at a.time whose value is
  // the time-weighted mean of a over [a,b) and b over [b,next): the step
  // function's integral over the merged span is unchanged. The final one
  // or two samples are kept verbatim so back()/value_at(now) stay exact.
  std::size_t out = 0;
  std::size_t i = 0;
  for (; i + 2 < n; i += 2) {
    const Sample& a = samples_[i];
    const Sample& b = samples_[i + 1];
    const double end = samples_[i + 2].time;
    const double wa = b.time - a.time;
    const double wb = end - b.time;
    const double w = wa + wb;
    samples_[out++] = {
        a.time, w > 0 ? (a.value * wa + b.value * wb) / w : b.value};
  }
  for (; i < n; ++i) samples_[out++] = samples_[i];
  samples_.resize(out);
}

double TimeSeries::mean_in(double t0, double t1) const {
  // Samples are time-ordered (add() asserts it), so the window is one run:
  // from the first sample at or after t0 to the last at or before t1.
  auto it = std::partition_point(
      samples_.begin(), samples_.end(),
      [t0](const Sample& s) { return !(s.time >= t0); });
  double sum = 0;
  std::size_t n = 0;
  for (; it != samples_.end() && it->time <= t1; ++it) {
    sum += it->value;
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0;
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
  if (samples_.empty() || t1 <= t0) return 0;
  double total = 0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const double seg_start = std::max(samples_[i].time, t0);
    const double seg_end =
        std::min(i + 1 < samples_.size() ? samples_[i + 1].time : t1, t1);
    if (seg_end > seg_start) total += samples_[i].value * (seg_end - seg_start);
  }
  return total;
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) out.push_back(s.value);
  return out;
}

}  // namespace hybridmr::stats
