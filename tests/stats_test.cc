// Unit tests for the statistics library (regressions, summaries, series).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/regression.h"
#include "stats/summary.h"
#include "stats/timeseries.h"

namespace hybridmr::stats {
namespace {

TEST(LinearRegression, RecoversExactLine) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{3, 5, 7, 9};  // y = 1 + 2x
  auto fit = LinearRegression::fit(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope(), 2.0, 1e-9);
  EXPECT_NEAR(fit->predict(10), 21.0, 1e-9);
}

TEST(LinearRegression, RejectsDegenerateInput) {
  std::vector<double> x{2, 2, 2};
  std::vector<double> y{1, 2, 3};
  EXPECT_FALSE(LinearRegression::fit(x, y).has_value());
  EXPECT_FALSE(LinearRegression::fit(std::vector<double>{1},
                                     std::vector<double>{1})
                   .has_value());
}

TEST(LinearRegression, NoisyFitHasReasonableR2) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  auto fit = LinearRegression::fit(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope(), 2.0, 0.01);
}

TEST(PiecewiseLinearRegression, FindsKnee) {
  // Flat at 10 until x=5, then slope 3.
  std::vector<double> x, y;
  for (int i = 0; i <= 10; ++i) {
    x.push_back(i);
    y.push_back(i <= 5 ? 10.0 : 10.0 + 3.0 * (i - 5));
  }
  auto fit = PiecewiseLinearRegression::fit(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_TRUE(fit->has_break());
  EXPECT_GT(fit->breakpoint(), 3.0);
  EXPECT_LT(fit->breakpoint(), 7.0);
  EXPECT_NEAR(fit->predict(2), 10.0, 0.8);
  EXPECT_NEAR(fit->predict(9), 22.0, 1.5);
}

TEST(PiecewiseLinearRegression, FallsBackToSingleSegment) {
  std::vector<double> x{0, 1, 2, 3, 4, 5};
  std::vector<double> y{0, 2, 4, 6, 8, 10};
  auto fit = PiecewiseLinearRegression::fit(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_FALSE(fit->has_break());
  EXPECT_NEAR(fit->predict(2.5), 5.0, 1e-9);
}

TEST(InverseRegression, RecoversInverseLaw) {
  // y = 5 + 100/x (JCT vs cluster size shape).
  std::vector<double> x{1, 2, 4, 8, 16};
  std::vector<double> y;
  for (double v : x) y.push_back(5 + 100 / v);
  auto fit = InverseRegression::fit(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->predict(32), 5 + 100.0 / 32, 1e-9);
}

TEST(Interpolate, MidpointAndExtrapolation) {
  std::vector<double> xs{1, 2, 4};
  std::vector<double> ys{10, 20, 40};
  EXPECT_NEAR(interpolate(xs, ys, 1.5), 15.0, 1e-9);
  EXPECT_NEAR(interpolate(xs, ys, 3.0), 30.0, 1e-9);
  EXPECT_NEAR(interpolate(xs, ys, 8.0), 80.0, 1e-9);  // extrapolates
  EXPECT_NEAR(interpolate(xs, ys, 0.5), 5.0, 1e-9);
}

TEST(Accumulator, WelfordMatchesDefinition) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_NEAR(acc.mean(), 5.0, 1e-12);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_NEAR(percentile(v, 0), 10, 1e-9);
  EXPECT_NEAR(percentile(v, 50), 25, 1e-9);
  EXPECT_NEAR(percentile(v, 100), 40, 1e-9);
  EXPECT_NEAR(percentile(v, 25), 17.5, 1e-9);
}

TEST(TimeSeries, ValueAtStepFunction) {
  TimeSeries ts;
  ts.add(0, 1);
  ts.add(10, 2);
  ts.add(20, 3);
  EXPECT_DOUBLE_EQ(ts.value_at(-1), 0);
  EXPECT_DOUBLE_EQ(ts.value_at(0), 1);
  EXPECT_DOUBLE_EQ(ts.value_at(9.9), 1);
  EXPECT_DOUBLE_EQ(ts.value_at(10), 2);
  EXPECT_DOUBLE_EQ(ts.value_at(100), 3);
}

TEST(TimeSeries, IntegrateStepFunction) {
  TimeSeries ts;
  ts.add(0, 100);   // 100 until t=10
  ts.add(10, 200);  // 200 afterwards
  EXPECT_NEAR(ts.integrate(0, 10), 1000, 1e-9);
  EXPECT_NEAR(ts.integrate(0, 20), 3000, 1e-9);
  EXPECT_NEAR(ts.integrate(5, 15), 500 + 1000, 1e-9);
  EXPECT_DOUBLE_EQ(ts.integrate(5, 5), 0);
}

TEST(TimeSeries, MeanInWindow) {
  TimeSeries ts;
  ts.add(0, 10);
  ts.add(1, 20);
  ts.add(2, 30);
  EXPECT_NEAR(ts.mean_in(0.5, 2.5), 25, 1e-12);
  EXPECT_DOUBLE_EQ(ts.mean_in(5, 6), 0);
}

// mean_in() reads only the window's samples; it must sum the same samples
// in the same order as a scan of the whole series, so the two agree bit
// for bit, on a compacted series with runs of equal times too.
TEST(TimeSeries, MeanInMatchesFullScan) {
  TimeSeries ts;
  ts.set_max_samples(16);
  double t = 0.25;
  for (int i = 0; i < 200; ++i) {
    ts.add(t, 0.1 * i + 1.0 / (i + 3));
    if (i % 3 != 0) t += 0.37 * (i % 5);  // i % 5 == 0 repeats a time
  }
  ASSERT_LE(ts.samples().size(), 16u);
  int repeats = 0;
  for (std::size_t i = 1; i < ts.samples().size(); ++i) {
    if (ts.samples()[i].time == ts.samples()[i - 1].time) ++repeats;
  }
  EXPECT_GT(repeats, 0);
  const double first = ts.samples().front().time;
  const double last = ts.back().time;
  auto full_scan = [&](double t0, double t1) {
    double sum = 0;
    std::size_t n = 0;
    for (const auto& s : ts.samples()) {
      if (s.time >= t0 && s.time <= t1) {
        sum += s.value;
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0;
  };
  std::vector<double> edges{first - 10, first - 1, first, last, last + 1,
                            last + 10};
  for (const auto& s : ts.samples()) {
    edges.push_back(s.time);
    edges.push_back(std::nextafter(s.time, -INFINITY));
    edges.push_back(std::nextafter(s.time, INFINITY));
  }
  int windows = 0;
  for (const double t0 : edges) {
    for (const double t1 : edges) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ts.mean_in(t0, t1)),
                std::bit_cast<std::uint64_t>(full_scan(t0, t1)))
          << "[" << t0 << ", " << t1 << "]";
      ++windows;
    }
  }
  EXPECT_GT(windows, 1000);
}

}  // namespace
}  // namespace hybridmr::stats
