// Dynamic cluster reconfiguration (paper §IV, "Design Trade-off Analysis"
// and conclusions: "it is possible to dynamically change the native and
// virtual cluster configurations to accommodate variations in workload
// mix"; enabled by on-demand virtualization à la Kooburat & Swift [22] and
// the near-native Dom-0 measurements of Fig. 2(c)).
//
// The Reconfigurator converts machines between the two duties at run time:
//   - virtualize: an idle native Hadoop node is decommissioned (tracker
//     drained, blocks re-replicated) and comes back as a virtualized host
//     carrying `vms_per_host` combined DataNode+TaskTracker VMs;
//   - nativize: an idle virtualized host sheds its VMs the same way and
//     rejoins as a native node.
// Both directions refuse while tasks are still running on the affected
// sites — drain first (the IPS's requeue action, or simply wait). Each
// conversion is a trace record on the engine's telemetry hub, when it has
// one.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "mapred/engine.h"
#include "storage/hdfs.h"

namespace hybridmr::core {

class Reconfigurator {
 public:
  Reconfigurator(cluster::HybridCluster& cluster, storage::Hdfs& hdfs,
                 mapred::MapReduceEngine& mr)
      : cluster_(&cluster), hdfs_(&hdfs), mr_(&mr) {}

  struct Stats {
    int virtualized = 0;
    int nativized = 0;
  };

  /// True when the machine (and every VM on it) runs no task attempts, so
  /// it can be reconfigured without killing work.
  [[nodiscard]] bool idle(const cluster::Machine& machine) const;

  /// Converts an idle native Hadoop node into a virtualized host with
  /// `vms_per_host` VMs shaped like the standard guests (1 vCPU / 1 GB at
  /// density 2). Returns the new VM sites, empty on refusal.
  std::vector<cluster::VirtualMachine*> virtualize_node(
      cluster::Machine& machine, int vms_per_host = 2);

  /// Converts an idle virtualized host back into a native Hadoop node.
  /// The resident VMs are decommissioned (blocks re-replicated) and
  /// detached. Returns false on refusal.
  bool nativize_host(cluster::Machine& machine);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  bool decommission_site(cluster::ExecutionSite& site);

  cluster::HybridCluster* cluster_;
  storage::Hdfs* hdfs_;
  mapred::MapReduceEngine* mr_;
  Stats stats_;
};

}  // namespace hybridmr::core
