// Fixture: unused-api. A miniature public API — never built, only fed to
// hybridmr-analyze by tests/analyze/analyze_driver.py, which pins the
// expected rule IDs and line numbers. Its consumers are bench/api_bench.cc
// (a use) and tests/gauge_test.cc (not a use: tests are not consumers).
// Keep line numbers stable or update the driver.
#pragma once

namespace stats {

class Gauge {
 public:
  double peak() const;    // line 12: only a test calls it
  void update(double v);  // clean: bench/api_bench.cc calls it
  double level() const;   // clean: api_bad.cc calls it
  // sim-lint: allow(unused-api) gauge_test reads the sample count
  int samples() const;  // clean: allowed, names an existing test
  // sim-lint: allow(unused-api) missing_test reads it
  int stale() const;  // line 18: the allow names no existing test

 private:
  double clamp(double v) const;  // clean: a private helper
  double level_ = 0;
  int samples_ = 0;
};

double ratio(double a, double b);  // line 26: dead at namespace scope

}  // namespace stats
