// Closed-loop interactive (transactional) applications.
//
// Substitute for RUBiS / TPC-W / Olio: N clients cycle between think time Z
// and a request served by the application's VM. The app posts its
// over-provisioned resource demand to the site (the paper's premise: spare
// capacity exists on interactive VMs) and, each control epoch, derives its
// response time from the capacity it was actually granted, via a closed
// M/G/1-PS approximation. Interference from collocated batch tasks shrinks
// the grant, which raises latency — exactly the signal the IPS watches.
#pragma once

#include <memory>
#include <string>

#include "cluster/machine.h"
#include "sim/simulation.h"
#include "stats/timeseries.h"

namespace hybridmr::telemetry {
struct Hub;
}  // namespace hybridmr::telemetry

namespace hybridmr::interactive {

struct AppParams {
  std::string name = "app";
  double cpu_s_per_req = 0.0035;  // core-seconds per request
  double io_mb_per_req = 0.01;    // disk MB per request
  sim::MegaBytes memory_mb{512};  // resident footprint
  sim::Duration sla_s{2.0};       // response-time SLA (paper: 2 s)
};

class InteractiveApp {
 public:
  /// Each client's think time between a response and its next request.
  static constexpr sim::Duration kThinkTime{7.0};

  InteractiveApp(sim::Simulation& sim, cluster::ExecutionSite& site,
                 AppParams params, int clients);
  ~InteractiveApp();

  InteractiveApp(const InteractiveApp&) = delete;
  InteractiveApp& operator=(const InteractiveApp&) = delete;

  /// Deploys the service workload and starts the periodic latency model.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return service_ != nullptr; }

  void set_clients(int clients);
  [[nodiscard]] int clients() const { return clients_; }

  /// Latest modelled mean response time (seconds).
  [[nodiscard]] double response_time_s() const { return response_s_; }
  /// Latest modelled throughput (requests/second).
  // sim-lint: allow(unused-api) property_test: the closed-loop identity
  [[nodiscard]] double throughput_rps() const { return throughput_rps_; }
  [[nodiscard]] bool sla_violated() const {
    return sim::Duration{response_s_} > params_.sla_s;
  }

  [[nodiscard]] const stats::TimeSeries& response_series() const {
    return response_series_;
  }
  [[nodiscard]] const AppParams& params() const { return params_; }
  [[nodiscard]] cluster::ExecutionSite& site() const { return *site_; }
  [[nodiscard]] const std::string& name() const { return params_.name; }

  /// Forces one immediate model refresh (normally periodic).
  void refresh();

  /// Attaches the app to a telemetry hub: SLA violation onsets and
  /// recoveries are traced.
  void set_telemetry(telemetry::Hub* hub) { tel_ = hub; }

 private:
  [[nodiscard]] cluster::Resources offered_demand() const;
  void note_telemetry();

  sim::Simulation& sim_;
  cluster::ExecutionSite* site_;  // the app's host VM; owned by HybridCluster
  AppParams params_;
  int clients_;
  cluster::WorkloadPtr service_;
  sim::PeriodicHandle ticker_;
  double response_s_ = 0;
  double throughput_rps_ = 0;
  stats::TimeSeries response_series_;
  telemetry::Hub* tel_ = nullptr;
  bool was_violated_ = false;
};

}  // namespace hybridmr::interactive
