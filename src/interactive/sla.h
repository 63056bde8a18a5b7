// SLA monitoring for interactive applications (input to the IPS).
#pragma once

#include <vector>

#include "interactive/app.h"

namespace hybridmr::interactive {

class SlaMonitor {
 public:
  void track(InteractiveApp& app) { apps_.push_back(&app); }

  [[nodiscard]] const std::vector<InteractiveApp*>& apps() const {
    return apps_;
  }

  /// Apps currently above their SLA.
  [[nodiscard]] std::vector<InteractiveApp*> violators() const {
    std::vector<InteractiveApp*> out;
    for (auto* app : apps_) {
      if (app->running() && app->sla_violated()) out.push_back(app);
    }
    return out;
  }

  /// Fraction of samples above SLA for one app over [t0, t1].
  static double violation_fraction(const InteractiveApp& app, double t0,
                                   double t1) {
    int total = 0;
    int bad = 0;
    for (const auto& s : app.response_series().samples()) {
      if (s.time < t0 || s.time > t1) continue;
      ++total;
      if (sim::Duration{s.value} > app.params().sla_s) ++bad;
    }
    return total > 0 ? static_cast<double>(bad) / total : 0;
  }

 private:
  std::vector<InteractiveApp*> apps_;
};

}  // namespace hybridmr::interactive
