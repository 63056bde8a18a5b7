// HybridMR: the 2-phase hierarchical scheduler for hybrid data centers
// (the paper's contribution, §III, Fig. 4).
//
//   Phase I  — profiles each incoming MapReduce job on small native and
//              virtual training clusters and steers its placement between
//              the physical and virtual partitions (Algorithms 1 and 2).
//              Interactive applications go to the virtual cluster.
//   Phase II — on the virtual cluster, the DRM performs dynamic resource
//              orchestration for batch tasks and the IPS protects the SLAs
//              of collocated interactive applications (Algorithm 3).
//
// Usage: build a cluster + Hdfs + MapReduceEngine with trackers on both
// native nodes and VMs, wrap them in a HybridMRScheduler, call start(),
// then submit jobs and deploy interactive apps through it.
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "core/drm.h"
#include "core/estimator.h"
#include "core/ips.h"
#include "core/phase1.h"
#include "core/profiler.h"
#include "interactive/app.h"
#include "interactive/sla.h"
#include "mapred/engine.h"
#include "storage/hdfs.h"
#include "whatif/fork.h"

namespace hybridmr::core {

struct HybridMROptions {
  PhaseOneScheduler::Config phase1;
  DrmOptions drm;
  IpsOptions ips;
  bool enable_phase1 = true;
  bool enable_drm = true;
  bool enable_ips = true;
};

class HybridMRScheduler {
 public:
  HybridMRScheduler(sim::Simulation& sim, cluster::HybridCluster& cluster,
                    storage::Hdfs& hdfs, mapred::MapReduceEngine& mr,
                    HybridMROptions options);

  HybridMRScheduler(sim::Simulation& sim, cluster::HybridCluster& cluster,
                    storage::Hdfs& hdfs, mapred::MapReduceEngine& mr)
      : HybridMRScheduler(sim, cluster, hdfs, mr, HybridMROptions{}) {}

  HybridMRScheduler(const HybridMRScheduler&) = delete;
  HybridMRScheduler& operator=(const HybridMRScheduler&) = delete;

  /// Starts the Phase II control loops (DRM epochs + IPS monitoring).
  void start();
  void stop();

  /// Submits a batch job through Phase I placement.
  mapred::Job* submit(const mapred::JobSpec& spec);

  /// The Phase I decision made for the most recent submit().
  [[nodiscard]] const PhaseOneScheduler::Decision& last_decision() const {
    return last_decision_;
  }

  /// Deploys an interactive application on the virtual cluster (least
  /// loaded VM unless `site` is given), registers it with the SLA monitor
  /// and starts it.
  interactive::InteractiveApp& deploy_interactive(
      const interactive::AppParams& params, int clients,
      cluster::ExecutionSite* site = nullptr);

  // --- component access ---
  // sim-lint: allow(unused-api) core_test, core_deep_test: trained profiles
  [[nodiscard]] JobProfiler& profiler() { return profiler_; }
  [[nodiscard]] PhaseOneScheduler& phase1() { return phase1_; }
  [[nodiscard]] DynamicResourceManager& drm() { return drm_; }
  [[nodiscard]] InterferencePreventionSystem& ips() { return ips_; }
  /// The what-if engine backing model-predictive IPS arbitration; present
  /// whenever `options.ips.model_predictive` is set (docs/WHATIF.md).
  [[nodiscard]] whatif::WhatIfEngine* whatif() { return whatif_.get(); }
  // sim-lint: allow(unused-api) core_test: deployed apps are monitored
  [[nodiscard]] interactive::SlaMonitor& sla_monitor() { return monitor_; }
  [[nodiscard]] const HybridMROptions& options() const { return options_; }
  [[nodiscard]] const std::vector<std::unique_ptr<interactive::InteractiveApp>>&
  apps() const {
    return apps_;
  }

  /// Counts of Hadoop nodes per partition (from the engine's trackers).
  [[nodiscard]] int native_nodes() const;
  [[nodiscard]] int virtual_nodes() const;

  /// Attaches the whole Phase I + Phase II stack (DRM, IPS, deployed and
  /// future interactive apps) to a telemetry hub. Null detaches.
  void set_telemetry(telemetry::Hub* hub);

 private:
  sim::Simulation& sim_;
  cluster::HybridCluster& cluster_;
  mapred::MapReduceEngine& mr_;
  HybridMROptions options_;
  ProfileDatabase profile_db_;
  JobProfiler profiler_;
  PhaseOneScheduler phase1_;
  Estimator estimator_;
  DynamicResourceManager drm_;
  interactive::SlaMonitor monitor_;
  InterferencePreventionSystem ips_;
  std::unique_ptr<whatif::WhatIfEngine> whatif_;
  PhaseOneScheduler::Decision last_decision_;
  std::vector<std::unique_ptr<interactive::InteractiveApp>> apps_;
  telemetry::Hub* tel_ = nullptr;
};

}  // namespace hybridmr::core
