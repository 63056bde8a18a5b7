// Strong dimensional types for simulator quantities.
//
// Every quantity the simulator trades in — simulated seconds, megabytes,
// MB/s, watts, joules, core shares, dimensionless fractions — used to be a
// bare double, so a rate could silently be added to a size and a sim-time
// could be multiplied by a power draw. These wrappers make only the
// dimensionally valid combinations compile:
//
//   MBps * Duration   -> MegaBytes        Watts * Duration -> Joules
//   MegaBytes / MBps  -> Duration         Joules / Duration -> Watts
//   MegaBytes / Duration -> MBps          Joules / Watts    -> Duration
//
// plus same-dimension addition/subtraction, scalar scaling, Fraction
// scaling, ordered comparisons and the dimensionless ratio Q / Q -> double.
// Anything else (Watts * MegaBytes, MBps + Seconds, ...) is a compile
// error, enforced by tests/units_negative and requires-expression
// static_asserts in tests/units_test.cc.
//
// The wrappers are zero-overhead: a Quantity is a single double, every
// operation is constexpr and inline, and no virtual/allocation machinery is
// involved. BENCH_scale.json is gated in CI to keep that true.
//
// Absolute simulated time stays `SimTime` (event_queue.h): a timestamp is a
// point, not a span, and the event queue orders raw doubles. `Duration`
// (alias `Seconds`) is the span type; `SimTime + Duration::value()` or the
// Simulation::after/every overloads bridge the two.
#pragma once

#include <concepts>

namespace hybridmr::sim {

namespace unit_detail {
struct seconds_tag;
struct megabytes_tag;
struct mbps_tag;
struct secs_per_mb_tag;
struct watts_tag;
struct joules_tag;
struct cores_tag;
struct fraction_tag;
struct per_second_tag;
}  // namespace unit_detail

/// One double, tagged with its dimension. Explicit construction only:
/// `Watts{180}` compiles, `Watts w = 180` and `Watts{some_mbps}` do not.
template <class Tag>
struct Quantity {
  constexpr Quantity() = default;
  constexpr explicit Quantity(double value) : v_(value) {}

  /// The raw magnitude, in this dimension's canonical unit.
  [[nodiscard]] constexpr double value() const { return v_; }

  // --- same-dimension arithmetic ---
  constexpr Quantity& operator+=(Quantity o) {
    v_ += o.v_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    v_ -= o.v_;
    return *this;
  }
  constexpr Quantity& operator*=(double k) {
    v_ *= k;
    return *this;
  }
  constexpr Quantity& operator/=(double k) {
    v_ /= k;
    return *this;
  }
  [[nodiscard]] constexpr Quantity operator-() const { return Quantity{-v_}; }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.v_ + b.v_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.v_ - b.v_};
  }

  // --- scalar scaling ---
  friend constexpr Quantity operator*(Quantity a, double k) {
    return Quantity{a.v_ * k};
  }
  friend constexpr Quantity operator*(double k, Quantity a) {
    return Quantity{k * a.v_};
  }
  friend constexpr Quantity operator/(Quantity a, double k) {
    return Quantity{a.v_ / k};
  }

  /// Dimensionless ratio of two same-dimension quantities.
  friend constexpr double operator/(Quantity a, Quantity b) {
    return a.v_ / b.v_;
  }

  // Ordered comparisons are always safe; exact equality on derived values
  // shares SimTime's rounding caveat — prefer ordered forms, or
  // sim::same_time() on the values where intent matters.
  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

 private:
  double v_ = 0;
};

/// A span of simulated time, in seconds. (Absolute timestamps are SimTime.)
using Seconds = Quantity<unit_detail::seconds_tag>;
using Duration = Seconds;
/// A data size.
using MegaBytes = Quantity<unit_detail::megabytes_tag>;
/// A data rate.
using MBps = Quantity<unit_detail::mbps_tag>;
/// Compute cost density: cpu-seconds per MB processed (job profiles).
using SecondsPerMB = Quantity<unit_detail::secs_per_mb_tag>;
/// Instantaneous power.
using Watts = Quantity<unit_detail::watts_tag>;
/// Energy.
using Joules = Quantity<unit_detail::joules_tag>;
/// CPU capacity or occupancy in cores (fractional shares allowed).
using CoreShare = Quantity<unit_detail::cores_tag>;
/// A dimensionless fraction (utilization, progress, tax).
using Fraction = Quantity<unit_detail::fraction_tag>;
/// An inverse-time density (1/s): rate produced per unit of stock, e.g. how
/// many MB/s of page dirtying each MB of hot guest memory generates during
/// Xen pre-copy (Calibration::dirty_rate_per_active_mb).
using PerSecond = Quantity<unit_detail::per_second_tag>;

// --- dimensional cross products ------------------------------------------

constexpr MegaBytes operator*(MBps rate, Duration t) {
  return MegaBytes{rate.value() * t.value()};
}
constexpr MegaBytes operator*(Duration t, MBps rate) { return rate * t; }
constexpr Duration operator/(MegaBytes size, MBps rate) {
  return Duration{size.value() / rate.value()};
}
constexpr MBps operator/(MegaBytes size, Duration t) {
  return MBps{size.value() / t.value()};
}

constexpr Duration operator*(SecondsPerMB cost, MegaBytes size) {
  return Duration{cost.value() * size.value()};
}
constexpr Duration operator*(MegaBytes size, SecondsPerMB cost) {
  return cost * size;
}
constexpr SecondsPerMB operator/(Duration t, MegaBytes size) {
  return SecondsPerMB{t.value() / size.value()};
}

constexpr MBps operator*(PerSecond density, MegaBytes stock) {
  return MBps{density.value() * stock.value()};
}
constexpr MBps operator*(MegaBytes stock, PerSecond density) {
  return density * stock;
}
constexpr PerSecond operator/(MBps rate, MegaBytes stock) {
  return PerSecond{rate.value() / stock.value()};
}

constexpr Joules operator*(Watts p, Duration t) {
  return Joules{p.value() * t.value()};
}
constexpr Joules operator*(Duration t, Watts p) { return p * t; }
constexpr Watts operator/(Joules e, Duration t) {
  return Watts{e.value() / t.value()};
}
constexpr Duration operator/(Joules e, Watts p) {
  return Duration{e.value() / p.value()};
}

// Fraction scales any (non-Fraction) quantity without leaving its
// dimension; Fraction * Fraction stays a plain ratio via Quantity's
// same-dimension operator/ and scalar forms.
template <class Tag>
  requires(!std::same_as<Tag, unit_detail::fraction_tag>)
constexpr Quantity<Tag> operator*(Quantity<Tag> q, Fraction f) {
  return Quantity<Tag>{q.value() * f.value()};
}
template <class Tag>
  requires(!std::same_as<Tag, unit_detail::fraction_tag>)
constexpr Quantity<Tag> operator*(Fraction f, Quantity<Tag> q) {
  return q * f;
}

// --- literals --------------------------------------------------------------

/// `using namespace hybridmr::sim::unit_literals;` enables `120.0_secs`,
/// `64_mb`, `50_mbps`, `180_watts`, `3600_joules`, `2_cores`.
inline namespace unit_literals {
constexpr Seconds operator""_secs(long double v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_secs(unsigned long long v) {
  return Seconds{static_cast<double>(v)};
}
constexpr MegaBytes operator""_mb(long double v) {
  return MegaBytes{static_cast<double>(v)};
}
constexpr MegaBytes operator""_mb(unsigned long long v) {
  return MegaBytes{static_cast<double>(v)};
}
constexpr MBps operator""_mbps(long double v) {
  return MBps{static_cast<double>(v)};
}
constexpr MBps operator""_mbps(unsigned long long v) {
  return MBps{static_cast<double>(v)};
}
constexpr Watts operator""_watts(long double v) {
  return Watts{static_cast<double>(v)};
}
constexpr Watts operator""_watts(unsigned long long v) {
  return Watts{static_cast<double>(v)};
}
constexpr Joules operator""_joules(long double v) {
  return Joules{static_cast<double>(v)};
}
constexpr Joules operator""_joules(unsigned long long v) {
  return Joules{static_cast<double>(v)};
}
constexpr CoreShare operator""_cores(long double v) {
  return CoreShare{static_cast<double>(v)};
}
constexpr CoreShare operator""_cores(unsigned long long v) {
  return CoreShare{static_cast<double>(v)};
}
}  // namespace unit_literals

}  // namespace hybridmr::sim
