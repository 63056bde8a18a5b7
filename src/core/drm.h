// Dynamic Resource Manager (paper §III-B1, Fig. 7).
//
// The DRM replaces stock Hadoop's rigid slot shares with demand-driven
// allocations, epoch by epoch. Each epoch plays both of the paper's roles:
//   - Local resource manager (one per node): the epoch groups the running
//     attempts into one NodeReport per execution site and samples each
//     resident attempt's demand and allocation into the shared Estimator,
//     which keeps each task's latest sample.
//   - Global resource manager: the PerformanceBalancer computes and applies
//     the resource adjustments (cap changes, cgroup-style I/O shares,
//     memory admission) from the coordinated view of all node reports. The
//     ContentionDetector classifies tasks into resource-deficit and
//     resource-hogging for the epoch's decision record.
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

/// One node's running attempts, as a DRM epoch groups them.
struct NodeReport {
  cluster::ExecutionSite* site = nullptr;
  std::vector<mapred::TaskAttempt*> attempts;
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

  explicit PerformanceBalancer(const DrmOptions& options)
      : options_(&options) {}

  /// One balancing round over the LRM reports. `exempt` marks attempts
  /// under IPS control that the DRM must not touch.
  Stats balance(const std::vector<NodeReport>& reports,
                const std::function<bool(const mapred::TaskAttempt&)>& exempt);

  /// Forgets state for attempts that no longer run.
  void prune(const std::vector<mapred::TaskAttempt*>& live);

 private:
  void balance_memory(const NodeReport& report,
                      const std::function<bool(const mapred::TaskAttempt&)>&
                          exempt,
                      Stats& stats);

  const DrmOptions* options_;
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

  /// Marks attempts the DRM must leave alone (IPS-owned).
  void set_exempt(std::function<bool(const mapred::TaskAttempt&)> exempt) {
    exempt_ = std::move(exempt);
  }

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
