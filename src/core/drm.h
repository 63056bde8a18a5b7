// Dynamic Resource Manager (paper §III-B1, Fig. 7).
//
// The DRM replaces stock Hadoop's rigid slot shares with demand-driven
// allocations, epoch by epoch:
//   - LocalResourceManager (one per node): ResourceProfiler samples the
//     run-time resource usage of resident tasks; the shared Estimator fits
//     their performance models.
//   - GlobalResourceManager: the ContentionDetector classifies tasks into
//     resource-deficit and resource-hogging from the coordinated view of
//     all LRM reports; the PerformanceBalancer computes and applies the
//     resource adjustments (cap changes, cgroup-style I/O shares, memory
//     admission).
// Each of CPU / memory / I/O management can be toggled independently —
// exactly the legends of the paper's Fig. 8(b,c).
#pragma once

#include <functional>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "core/estimator.h"
#include "mapred/engine.h"
#include "sim/simulation.h"

namespace hybridmr::telemetry {
struct Hub;
}  // namespace hybridmr::telemetry

namespace hybridmr::core {

struct DrmOptions {
  bool manage_cpu = true;
  bool manage_memory = true;
  bool manage_io = true;
  double epoch_s = 10.0;
};

/// Per-node usage report assembled by a LocalResourceManager.
struct NodeReport {
  cluster::ExecutionSite* site = nullptr;
  std::vector<mapred::TaskAttempt*> attempts;
  cluster::Resources total_demand;
  cluster::Resources total_alloc;
};

/// ResourceProfiler + Estimator front-end for one node.
class LocalResourceManager {
 public:
  LocalResourceManager(cluster::ExecutionSite& site, Estimator& estimator)
      : site_(&site), estimator_(&estimator) {}

  /// Samples every resident attempt and produces the node report.
  NodeReport profile(const std::vector<mapred::TaskAttempt*>& resident,
                     double now);

  [[nodiscard]] cluster::ExecutionSite& site() const { return *site_; }

 private:
  cluster::ExecutionSite* site_;
  Estimator* estimator_;
};

/// GRM component: labels resource-deficit and resource-hogging tasks.
class ContentionDetector {
 public:
  struct Result {
    std::vector<mapred::TaskAttempt*> deficit;
    std::vector<mapred::TaskAttempt*> hogging;
  };

  /// A task is deficit when its dominant allocation ratio is below
  /// `kDeficitThreshold`; hogging when it is (near) fully satisfied while
  /// a deficit task shares its physical host.
  [[nodiscard]] Result classify(const std::vector<NodeReport>& reports,
                                const Estimator& estimator) const;

  static constexpr double kDeficitThreshold = 0.75;
};

/// GRM component: computes and applies the resource adjustments.
class PerformanceBalancer {
 public:
  struct Stats {
    int cap_updates = 0;
    int memory_pauses = 0;
    int memory_resumes = 0;
    int vm_share_updates = 0;
  };

  PerformanceBalancer(const DrmOptions& options, Estimator& estimator)
      : options_(&options), estimator_(&estimator) {}

  /// One balancing round over the LRM reports. `exempt` marks attempts
  /// under IPS control that the DRM must not touch.
  Stats balance(const std::vector<NodeReport>& reports,
                const std::function<bool(const mapred::TaskAttempt&)>& exempt);

  /// Attempts currently paused by the memory-admission policy.
  [[nodiscard]] const std::set<mapred::TaskAttempt*>& paused() const {
    return paused_;
  }

  /// Forgets state for attempts that no longer run.
  void prune(const std::vector<mapred::TaskAttempt*>& live);

 private:
  void balance_memory(const NodeReport& report,
                      const std::function<bool(const mapred::TaskAttempt&)>&
                          exempt,
                      Stats& stats);

  const DrmOptions* options_;
  Estimator* estimator_;
  std::set<mapred::TaskAttempt*> paused_;
  std::set<cluster::VirtualMachine*> vm_capped_;

 public:
  /// I/O fair-sharing across the VMs of one physical host (cgroup blkio
  /// weights in the paper). Public for the DRM to drive per host.
  void balance_host_io(cluster::Machine& host,
                       const std::vector<NodeReport>& reports, Stats& stats);
};

/// The full Phase II resource manager: GRM + LRMs on a periodic epoch.
class DynamicResourceManager {
 public:
  DynamicResourceManager(sim::Simulation& sim, mapred::MapReduceEngine& mr,
                         cluster::HybridCluster& cluster,
                         Estimator& estimator, DrmOptions options);

  /// Runs one control epoch immediately.
  void epoch();

  /// Starts/stops the periodic controller.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return ticker_.active(); }

  /// Marks attempts the DRM must leave alone (IPS-owned).
  void set_exempt(std::function<bool(const mapred::TaskAttempt&)> exempt) {
    exempt_ = std::move(exempt);
  }

  [[nodiscard]] const DrmOptions& options() const { return options_; }
  [[nodiscard]] const PerformanceBalancer::Stats& lifetime_stats() const {
    return lifetime_;
  }

  /// Attaches the DRM to a telemetry hub (null detaches).
  void set_telemetry(telemetry::Hub* hub) { tel_ = hub; }

 private:
  sim::Simulation& sim_;
  mapred::MapReduceEngine& mr_;
  cluster::HybridCluster& cluster_;
  Estimator& estimator_;
  DrmOptions options_;
  ContentionDetector detector_;
  PerformanceBalancer balancer_;
  PerformanceBalancer::Stats lifetime_;
  sim::PeriodicHandle ticker_;
  std::function<bool(const mapred::TaskAttempt&)> exempt_;
  telemetry::Hub* tel_ = nullptr;
};

}  // namespace hybridmr::core
