#include "interactive/app.h"

#include <algorithm>
#include <cmath>

#include "cluster/calibration.h"
#include "telemetry/telemetry.h"

namespace hybridmr::interactive {

using cluster::Resources;

namespace {

/// Response-time floor.
constexpr sim::Duration kMinResponse{0.05};
/// Latency model refresh period.
constexpr sim::Duration kUpdatePeriod{5.0};
/// Log-space stddev of the lognormal jitter on reported latency.
constexpr double kNoiseSd = 0.04;
/// Capacity reserved relative to the peak offered load: interactive VMs
/// are deliberately over-provisioned (the paper's core premise, §I).
constexpr double kOverprovisionFactor = 2.5;

}  // namespace

InteractiveApp::InteractiveApp(sim::Simulation& sim,
                               cluster::ExecutionSite& site, AppParams params,
                               int clients)
    : sim_(sim), site_(&site), params_(std::move(params)), clients_(clients) {}

InteractiveApp::~InteractiveApp() { stop(); }

Resources InteractiveApp::offered_demand() const {
  // Peak load the client population could offer if served at the floor
  // latency, times the over-provisioning headroom.
  const double lambda_max = clients_ / (kThinkTime + kMinResponse).value();
  Resources d;
  d.cpu = lambda_max * params_.cpu_s_per_req * kOverprovisionFactor;
  d.disk = lambda_max * params_.io_mb_per_req * kOverprovisionFactor;
  d.memory = params_.memory_mb.value();
  return d;
}

void InteractiveApp::start() {
  if (service_) return;
  service_ = std::make_shared<cluster::Workload>(
      params_.name + ":service", offered_demand(),
      cluster::Workload::kService);
  site_->add(service_);
  refresh();
  ticker_ = sim_.every(kUpdatePeriod, [this]() { refresh(); });
}

void InteractiveApp::stop() {
  ticker_.cancel();
  if (service_ && service_->site() != nullptr) {
    service_->site()->remove(service_.get());
  }
  service_.reset();
}

void InteractiveApp::set_clients(int clients) {
  clients_ = clients;
  if (service_) {
    service_->set_demand(offered_demand());
    refresh();
  }
}

void InteractiveApp::refresh() {
  if (!service_) return;
  if (clients_ <= 0) {
    response_s_ = kMinResponse.value();
    throughput_rps_ = 0;
    response_series_.add(sim_.now(), response_s_);
    note_telemetry();
    return;
  }
  const Resources alloc = service_->allocated();
  const double N = clients_;
  const double Z = kThinkTime.value();

  // Queueing congestion at the shared physical resources: utilization by
  // *other* consumers on the host (collocated VMs, batch tasks) lengthens
  // every request's CPU slice and disk access.
  const cluster::Machine* host = site_->host_machine();
  auto other_util = [&](cluster::ResourceKind kind, double own) {
    if (host == nullptr) return 0.0;
    const double cap = host->capacity()[kind];
    if (cap <= 0) return 0.0;
    const double others =
        host->utilization(kind) - own / cap;
    return std::clamp(others, 0.0, 0.98);
  };

  // Effective service capacity from the granted share, degraded by the
  // contention the host is experiencing.
  double mu = std::numeric_limits<double>::infinity();
  if (params_.cpu_s_per_req > 0) {
    const double usable =
        std::max(1e-9, alloc.cpu) *
        (1.0 - other_util(cluster::ResourceKind::kCpu, alloc.cpu));
    mu = std::min(mu, usable / params_.cpu_s_per_req);
  }
  if (params_.io_mb_per_req > 0) {
    const double usable =
        std::max(1e-9, alloc.disk) *
        (1.0 - other_util(cluster::ResourceKind::kDisk, alloc.disk));
    mu = std::min(mu, usable / params_.io_mb_per_req);
  }
  double s = std::isinf(mu) ? 1e-3 : 1.0 / std::max(mu, 1e-6);
  // Memory pressure inflates service time (paging).
  if (params_.memory_mb > sim::MegaBytes{0}) {
    const double ratio = alloc.memory / params_.memory_mb.value();
    s /= cluster::memory_pressure_factor(
        ratio, cluster::Calibration::standard());
  }

  // Closed PS station with N clients, think Z:  R^2 + R(Z - s(N+1)) - sZ = 0.
  const double b = Z - s * (N + 1);
  double r = (-b + std::sqrt(b * b + 4.0 * s * Z)) / 2.0;
  r = std::max(r, kMinResponse.value());

  // Lognormal jitter makes timelines realistic without changing the mean.
  response_s_ = r * std::exp(sim_.rng().normal(0.0, kNoiseSd));
  throughput_rps_ = N / (response_s_ + Z);
  response_series_.add(sim_.now(), response_s_);
  note_telemetry();
}

void InteractiveApp::note_telemetry() {
  if (tel_ == nullptr) return;
  const bool violated = sla_violated();
  if (violated != was_violated_) {
    tel_->trace.instant(
        sim_.now(), telemetry::EventKind::kSlaViolation, params_.name,
        site_->name(),
        {{"state", violated ? "violated" : "recovered"},
         {"response_s", telemetry::json_num(response_s_)},
         {"sla_s", telemetry::json_num(params_.sla_s.value())}});
    was_violated_ = violated;
  }
}

}  // namespace hybridmr::interactive
