#include "core/hybridmr.h"

#include <algorithm>
#include <limits>

#include "sim/log.h"
#include "telemetry/telemetry.h"

namespace hybridmr::core {

HybridMRScheduler::HybridMRScheduler(sim::Simulation& sim,
                                     cluster::HybridCluster& cluster,
                                     storage::Hdfs& hdfs,
                                     mapred::MapReduceEngine& mr,
                                     HybridMROptions options)
    : sim_(sim),
      cluster_(cluster),
      mr_(mr),
      options_(std::move(options)),
      profiler_(profile_db_, make_simulated_runner(options_.profiling_seed)),
      phase1_(profiler_, options_.phase1),
      drm_(sim, mr, cluster, estimator_, options_.drm),
      ips_(sim, mr, cluster, monitor_, estimator_, options_.ips) {
  (void)hdfs;
  // The DRM must not override IPS throttles/pauses.
  drm_.set_exempt(
      [this](const mapred::TaskAttempt& a) { return ips_.owns(a); });
  if (options_.ips.model_predictive) {
    whatif_ = std::make_unique<whatif::WhatIfEngine>(sim_);
    ips_.set_whatif(whatif_.get());
  }
}

int HybridMRScheduler::native_nodes() const {
  int n = 0;
  for (const auto& tr : mr_.trackers()) {
    if (!tr->site().is_virtual()) ++n;
  }
  return n;
}

int HybridMRScheduler::virtual_nodes() const {
  int n = 0;
  for (const auto& tr : mr_.trackers()) {
    if (tr->site().is_virtual()) ++n;
  }
  return n;
}

void HybridMRScheduler::start() {
  if (options_.enable_drm) drm_.start();
  if (options_.enable_ips) ips_.start();
}

void HybridMRScheduler::stop() {
  drm_.stop();
  ips_.stop();
}

mapred::Job* HybridMRScheduler::submit(const mapred::JobSpec& spec) {
  const int natives = native_nodes();
  const int virtuals = virtual_nodes();

  mapred::PlacementPool pool = mapred::PlacementPool::kAny;
  if (options_.enable_phase1 && natives > 0 && virtuals > 0) {
    // Estimate against the actual partition sizes of this deployment.
    auto& config = const_cast<PhaseOneScheduler::Config&>(phase1_.config());
    config.native_cluster_size = natives;
    config.virtual_cluster_size = virtuals;
    last_decision_ = phase1_.place(spec);
    pool = last_decision_.pool;
  } else {
    last_decision_ = {};
    last_decision_.pool = pool;
    last_decision_.reason = "phase 1 disabled or single-partition cluster";
  }

  sim::log_info(sim_.now(), "hybridmr",
                spec.name + " -> " +
                    (pool == mapred::PlacementPool::kNativeOnly
                         ? "native"
                         : pool == mapred::PlacementPool::kVirtualOnly
                               ? "virtual"
                               : "any") +
                    " (" + last_decision_.reason + ")");
  if (tel_ != nullptr) {
    tel_->trace.instant(
        sim_.now(), telemetry::EventKind::kPhase1Placement, spec.name, "jobs",
        {{"pool", pool == mapred::PlacementPool::kNativeOnly
                      ? "native"
                      : pool == mapred::PlacementPool::kVirtualOnly
                            ? "virtual"
                            : "any"},
         {"reason", last_decision_.reason}});
  }
  mapred::Job* job = mr_.submit(spec, pool);
  // Online profiling (paper §III-A1): feed the production run back into
  // the profile database so future estimates for this job sharpen.
  const bool virtual_run = pool == mapred::PlacementPool::kVirtualOnly;
  const int nodes = virtual_run ? virtuals
                                : (pool == mapred::PlacementPool::kNativeOnly
                                       ? natives
                                       : natives + virtuals);
  auto previous = std::move(job->on_complete);
  job->on_complete = [this, virtual_run, nodes,
                      previous = std::move(previous)](mapred::Job& done) {
    ProfileEntry entry;
    entry.job_name = done.spec().name;
    entry.virtual_cluster = virtual_run;
    entry.cluster_size = nodes;
    entry.data_gb = done.spec().input_gb;
    entry.jct_s = done.jct();
    entry.map_s = done.map_phase_seconds();
    entry.reduce_s = done.reduce_phase_seconds();
    profile_db_.add(entry);
    if (previous) previous(done);
  };
  return job;
}

interactive::InteractiveApp& HybridMRScheduler::deploy_interactive(
    const interactive::AppParams& params, int clients,
    cluster::ExecutionSite* site) {
  if (site == nullptr) {
    // Least-loaded VM (by dominant share of current demand), preferring
    // VMs that are not Hadoop nodes.
    double best_score = std::numeric_limits<double>::infinity();
    for (const auto& vm : cluster_.vms()) {
      if (vm->host_machine() == nullptr) continue;
      bool is_tracker = false;
      for (const auto& tr : mr_.trackers()) {
        if (&tr->site() == vm.get()) {
          is_tracker = true;
          break;
        }
      }
      const double load =
          vm->total_demand().dominant_share(vm->nominal()) +
          (is_tracker ? 0.5 : 0.0);
      if (load < best_score) {
        best_score = load;
        site = vm.get();
      }
    }
  }
  if (site == nullptr && !cluster_.machines().empty()) {
    site = cluster_.machines().front().get();  // last resort: native host
  }
  apps_.push_back(std::make_unique<interactive::InteractiveApp>(
      sim_, *site, params, clients));
  interactive::InteractiveApp& app = *apps_.back();
  if (tel_ != nullptr) app.set_telemetry(tel_);
  app.start();
  monitor_.track(app);
  sim::log_info(sim_.now(), "hybridmr",
                params.name + " (" + std::to_string(clients) +
                    " clients) -> " + site->name());
  return app;
}

void HybridMRScheduler::set_telemetry(telemetry::Hub* hub) {
  tel_ = hub;
  drm_.set_telemetry(hub);
  ips_.set_telemetry(hub);
  for (const auto& app : apps_) app->set_telemetry(hub);
}

}  // namespace hybridmr::core
