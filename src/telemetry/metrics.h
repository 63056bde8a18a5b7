// Sim-time metrics registry: counters, gauges, histograms and windowed time
// series, cheap enough to stay enabled in benches.
//
// Design rules:
//   - record paths are O(1) and allocation-free (histograms use fixed bucket
//     arrays, time series only allocate when a new window opens);
//   - one off switch: a run without telemetry has no hub, so components
//     hold null metric pointers and record nothing;
//   - iteration order is insertion order, so exports are deterministic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace hybridmr::telemetry {

/// Monotonically increasing total (events seen, MB shuffled, ...).
class Counter {
 public:
  void add(double delta = 1.0) {
    value_ += delta;
    ++events_;
  }

  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  double value_ = 0;
  std::uint64_t events_ = 0;
};

/// Last-write-wins instantaneous value (running attempts, powered servers).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }

  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram over [lo, hi] with linear bucket edges.
///
/// Values outside the range land in the first/last bucket (min/max still
/// track the true extremes). Percentiles interpolate linearly inside the
/// bucket, so accuracy is bounded by the bucket width — size the range to
/// the quantity (e.g. [0, 10] seconds for SLA latencies).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  Histogram(double lo, double hi) : lo_(lo), hi_(hi > lo ? hi : lo + 1) {}

  void record(double v) {
    ++counts_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / count_ : 0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

  /// Approximate percentile, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return counts_;
  }

 private:
  [[nodiscard]] std::size_t bucket_of(double v) const {
    if (v <= lo_) return 0;
    if (v >= hi_) return kBuckets - 1;
    const double f = (v - lo_) / (hi_ - lo_);
    const auto i = static_cast<std::size_t>(f * kBuckets);
    return i < kBuckets ? i : kBuckets - 1;
  }

  double lo_;
  double hi_;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Sim-time-windowed series: samples are aggregated into fixed windows of
/// `window_s` simulated seconds (count/sum/min/max per window). Windows are
/// aligned to multiples of window_s, so two same-seed runs produce identical
/// window boundaries.
class TimeSeriesMetric {
 public:
  struct Window {
    double start = 0;  // window covers [start, start + window_s)
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;

    [[nodiscard]] double mean() const { return count ? sum / count : 0; }
  };

  explicit TimeSeriesMetric(double window_s)
      : window_s_(window_s > 0 ? window_s : 1.0) {}

  void sample(double now, double value) {
    const std::int64_t idx = index_of(now);
    if (!live_open_ || idx != live_idx_) {
      if (live_open_) completed_.push_back(live_);
      live_ = empty_window(idx);
      live_idx_ = idx;
      live_open_ = true;
    }
    add(live_, value);
    ++total_count_;
    total_sum_ += value;
  }

  /// Like sample(), but several samples at one simulated instant count as
  /// one holding the newest value, the stats::TimeSeries::add_coalesced
  /// contract: the newest sample is held until a sample at a later instant
  /// arrives, and every read counts it. Do not mix with sample() on one
  /// series.
  void sample_coalesced(double now, double value) {
    if (held_ && held_time_ < now) sample(held_time_, held_value_);
    held_ = true;
    held_time_ = now;
    held_value_ = value;
  }

  [[nodiscard]] double window_seconds() const { return window_s_; }
  [[nodiscard]] std::uint64_t count() const {
    return total_count_ + (held_ ? 1 : 0);
  }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n ? (total_sum_ + (held_ ? held_value_ : 0)) / n : 0;
  }
  /// Mean of the most recent window with samples (0 when empty).
  [[nodiscard]] double last() const {
    const std::vector<Window> all = windows();
    return all.empty() ? 0 : all.back().mean();
  }

  /// All windows, oldest first, including the still-open one.
  [[nodiscard]] std::vector<Window> windows() const {
    std::vector<Window> out = completed_;
    if (live_open_) out.push_back(live_);
    if (held_) {
      const std::int64_t idx = index_of(held_time_);
      if (!live_open_ || idx != live_idx_) out.push_back(empty_window(idx));
      add(out.back(), held_value_);
    }
    return out;
  }

 private:
  [[nodiscard]] std::int64_t index_of(double t) const {
    return static_cast<std::int64_t>(t / window_s_);
  }
  [[nodiscard]] Window empty_window(std::int64_t idx) const {
    return Window{static_cast<double>(idx) * window_s_, 0, 0, 0, 0};
  }
  static void add(Window& w, double value) {
    ++w.count;
    w.sum += value;
    if (w.count == 1 || value < w.min) w.min = value;
    if (w.count == 1 || value > w.max) w.max = value;
  }

  double window_s_;
  std::vector<Window> completed_;
  Window live_{};
  std::int64_t live_idx_ = 0;
  bool live_open_ = false;
  std::uint64_t total_count_ = 0;
  double total_sum_ = 0;
  // sample_coalesced()'s newest sample, not yet in the windows above.
  bool held_ = false;
  double held_time_ = 0;
  double held_value_ = 0;
};

/// Owns all metrics of one run, keyed by name. Components fetch their
/// metric once (creation is not the hot path) and record through the
/// returned reference; references stay valid for the registry's lifetime.
class Registry {
 public:
  enum class Type { kCounter, kGauge, kHistogram, kTimeSeries };

  struct Entry {
    Type type;
    std::string name;
    std::string unit;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<TimeSeriesMetric> series;
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Fetch-or-create; an existing metric of the same name and type is
  /// returned as-is (the unit of the first registration wins).
  Counter& counter(const std::string& name, const std::string& unit = "");
  Gauge& gauge(const std::string& name, const std::string& unit = "");
  Histogram& histogram(const std::string& name, double lo, double hi,
                       const std::string& unit = "");
  TimeSeriesMetric& timeseries(const std::string& name, double window_s,
                               const std::string& unit = "");

  [[nodiscard]] const std::vector<std::unique_ptr<Entry>>& entries() const {
    return entries_;
  }

  /// Looks up an existing metric entry; nullptr if absent.
  [[nodiscard]] const Entry* find(const std::string& name) const;

  /// Deterministic JSON dump of every metric (insertion order).
  void to_json(std::ostream& os) const;

 private:
  Entry& fetch(const std::string& name, Type type, const std::string& unit);

  std::vector<std::unique_ptr<Entry>> entries_;
  std::map<std::string, std::size_t> index_;
};

const char* to_string(Registry::Type type);

}  // namespace hybridmr::telemetry
