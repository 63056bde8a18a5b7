// Fixture: unused-api counts only the uses that can name a function.
// Never built, only fed to hybridmr-analyze by
// tests/analyze/analyze_driver.py; the consumer is bench/calls_bench.cc.
// Keep line numbers stable or update the driver.
#pragma once

namespace stats {

class Window {
 public:
  double width() const;   // line 11: only non-calls share its name
  double height() const;  // clean: called as w.height()
  double depth() const;   // clean: called as p->depth()
  static double span();   // clean: called as Window::span()
  double area() const;    // clean: named as &Window::area
  double volume() const;  // clean: called inside a macro body
};

class Probe {
 public:
  Probe();  // clean: std::make_unique<Probe>() names its class
};

}  // namespace stats
