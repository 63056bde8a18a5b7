#include "telemetry/metrics.h"

#include "telemetry/json.h"

namespace hybridmr::telemetry {

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return min_;
  if (p >= 100) return max_;
  const double target = p / 100.0 * static_cast<double>(count_);
  double cum = 0;
  const double width = (hi_ - lo_) / static_cast<double>(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (cum + c >= target) {
      const double frac = c > 0 ? (target - cum) / c : 0.5;
      const double lo_edge = lo_ + width * static_cast<double>(i);
      double v = lo_edge + frac * width;
      // The extremes are exact; never report beyond them.
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
    cum += c;
  }
  return max_;
}

Registry::Entry& Registry::fetch(const std::string& name, Type type,
                                 const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end() && entries_[it->second]->type == type) {
    return *entries_[it->second];
  }
  auto entry = std::make_unique<Entry>();
  entry->type = type;
  entry->name = name;
  entry->unit = unit;
  entries_.push_back(std::move(entry));
  index_[name] = entries_.size() - 1;
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name, const std::string& unit) {
  Entry& e = fetch(name, Type::kCounter, unit);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& unit) {
  Entry& e = fetch(name, Type::kGauge, unit);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name, double lo, double hi,
                               const std::string& unit) {
  Entry& e = fetch(name, Type::kHistogram, unit);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(lo, hi);
  return *e.histogram;
}

TimeSeriesMetric& Registry::timeseries(const std::string& name,
                                       double window_s,
                                       const std::string& unit) {
  Entry& e = fetch(name, Type::kTimeSeries, unit);
  if (!e.series) e.series = std::make_unique<TimeSeriesMetric>(window_s);
  return *e.series;
}

const Registry::Entry* Registry::find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : entries_[it->second].get();
}

const char* to_string(Registry::Type type) {
  switch (type) {
    case Registry::Type::kCounter:
      return "counter";
    case Registry::Type::kGauge:
      return "gauge";
    case Registry::Type::kHistogram:
      return "histogram";
    case Registry::Type::kTimeSeries:
      return "timeseries";
  }
  return "?";
}

void Registry::to_json(std::ostream& os) const {
  os << "[";
  bool first = true;
  for (const auto& e : entries_) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\":" << json_str(e->name)
       << ",\"type\":" << json_str(to_string(e->type))
       << ",\"unit\":" << json_str(e->unit);
    switch (e->type) {
      case Type::kCounter:
        os << ",\"value\":" << json_num(e->counter->value())
           << ",\"events\":" << json_num(double(e->counter->events()));
        break;
      case Type::kGauge:
        os << ",\"value\":" << json_num(e->gauge->value());
        break;
      case Type::kHistogram: {
        const Histogram& h = *e->histogram;
        os << ",\"count\":" << json_num(double(h.count()))
           << ",\"mean\":" << json_num(h.mean())
           << ",\"min\":" << json_num(h.min())
           << ",\"max\":" << json_num(h.max())
           << ",\"p50\":" << json_num(h.percentile(50))
           << ",\"p95\":" << json_num(h.percentile(95))
           << ",\"p99\":" << json_num(h.percentile(99));
        break;
      }
      case Type::kTimeSeries: {
        const TimeSeriesMetric& s = *e->series;
        os << ",\"window_s\":" << json_num(s.window_seconds())
           << ",\"count\":" << json_num(double(s.count()))
           << ",\"mean\":" << json_num(s.mean()) << ",\"windows\":[";
        bool w_first = true;
        for (const auto& w : s.windows()) {
          if (!w_first) os << ",";
          w_first = false;
          os << "{\"t\":" << json_num(w.start)
             << ",\"n\":" << json_num(double(w.count))
             << ",\"mean\":" << json_num(w.mean())
             << ",\"min\":" << json_num(w.min)
             << ",\"max\":" << json_num(w.max) << "}";
        }
        os << "]";
        break;
      }
    }
    os << "}";
  }
  os << "\n]";
}

}  // namespace hybridmr::telemetry
