// TestBed: one-stop wiring of the simulated testbed.
//
// Owns a Simulation, a HybridCluster, an Hdfs instance and a MapReduceEngine,
// and provides the cluster shapes used throughout the paper's evaluation:
// native nodes, virtualized hosts (k VMs per PM), Dom-0 quasi-native nodes,
// and the split TaskTracker/DataNode architecture (Fig. 3).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "faults/injector.h"
#include "interactive/app.h"
#include "mapred/engine.h"
#include "sim/simulation.h"
#include "storage/hdfs.h"
#include "telemetry/telemetry.h"
#include "workload/benchmarks.h"

namespace hybridmr::harness {

class TestBed {
 public:
  struct Options {
    std::uint64_t seed = 42;
    std::string scheduler = "fair";  // paper's testbed uses FairScheduler
    bool speculative_execution = true;
    /// Wires a telemetry::Hub through cluster + engine. False is the one
    /// off switch: no hub, so every component records nothing.
    bool telemetry = true;
    /// Enables the simulation profiler (scoped wall timers + deterministic
    /// work-attribution counters; see telemetry/profiler.h). Forces a hub
    /// even when `telemetry` is false. The HYBRIDMR_PROFILE environment
    /// variable (1/on/0/off; any other value throws std::invalid_argument)
    /// overrides this at construction, so any harness binary can be
    /// profiled without a rebuild.
    bool profile = false;
    /// Watchdog for long runs, active only when `profile` is on: zero
    /// thresholds disable each check (see Profiler::WatchdogOptions).
    telemetry::Profiler::WatchdogOptions watchdog{};
    /// Fault plan executed against the run; an empty schedule (default)
    /// constructs no injector at all.
    faults::FaultSchedule faults{};
    cluster::Calibration calibration = cluster::Calibration::standard();
  };

  TestBed() : TestBed(Options{}) {}
  explicit TestBed(Options options);

  [[nodiscard]] sim::Simulation& sim() { return *sim_; }
  [[nodiscard]] cluster::HybridCluster& cluster() { return *cluster_; }
  [[nodiscard]] storage::Hdfs& hdfs() { return *hdfs_; }
  [[nodiscard]] mapred::MapReduceEngine& mr() { return *mr_; }
  /// The armed fault injector; null when Options::faults was empty.
  [[nodiscard]] faults::FaultInjector* faults() { return faults_.get(); }
  /// The run's telemetry hub; null when disabled.
  [[nodiscard]] telemetry::Hub* telemetry() const { return tel_.get(); }

  /// The run's profiler; null unless profiling is live (Options::profile /
  /// HYBRIDMR_PROFILE).
  [[nodiscard]] telemetry::Profiler* profiler() const {
    return tel_ && tel_->profiler.enabled() ? &tel_->profiler : nullptr;
  }

  /// Builds the run report from the live engine/cluster state. Pass the
  /// interactive apps (e.g. from HybridMRScheduler::apps()) to include
  /// per-app SLA percentiles.
  [[nodiscard]] telemetry::RunReport report(
      const std::vector<const interactive::InteractiveApp*>& apps = {}) const;

  // --- cluster shapes (each call adds nodes; mix freely) ---

  /// Native Hadoop nodes: one DataNode + TaskTracker per physical machine.
  std::vector<cluster::ExecutionSite*> add_native_nodes(int count);

  /// Virtualized Hadoop: `hosts` PMs each running `vms_per_host` VMs, every
  /// VM a combined DataNode + TaskTracker (default Hadoop deployment).
  /// With `partitioned` (default) each VM gets an equal slice of the host:
  /// pm_cores/k vCPUs and pm_memory/(2k) MB — at k=2 exactly the paper's
  /// 1 vCPU / 1 GB guests. With partitioned=false every VM is the paper's
  /// fixed 1 vCPU / 1 GB shape regardless of packing density (used by the
  /// consolidation experiments of Fig. 2(a)).
  std::vector<cluster::ExecutionSite*> add_virtual_nodes(
      int hosts, int vms_per_host, bool partitioned = true);

  /// Split architecture (paper Fig. 3): per host, one dedicated DataNode VM
  /// plus `compute_vms_per_host` TaskTracker-only VMs.
  std::vector<cluster::ExecutionSite*> add_split_nodes(
      int hosts, int compute_vms_per_host);

  /// VM shape for `vms_per_host`-way partitioning of one host.
  [[nodiscard]] std::pair<sim::CoreShare, sim::MegaBytes>
  partitioned_vm_shape(int vms_per_host) const;

  /// Dom-0 deployment: Hadoop runs in the privileged domain with the full
  /// machine's resources (paper Fig. 2(c)).
  std::vector<cluster::ExecutionSite*> add_dom0_nodes(int count);

  /// Physical machines with *no* Hadoop role (hosts for interactive VMs).
  std::vector<cluster::Machine*> add_plain_machines(int count);

  /// A VM on `host` with no Hadoop role (interactive app placement).
  cluster::VirtualMachine* add_plain_vm(cluster::Machine& host);

  // --- execution helpers ---

  /// Submits `spec` and runs the simulation until the job finishes.
  /// Returns the job completion time in seconds.
  double run_job(const mapred::JobSpec& spec);

  /// Submits all specs at once, runs to completion, returns each JCT
  /// in submission order.
  std::vector<double> run_jobs(const std::vector<mapred::JobSpec>& specs);

  /// Runs until simulated time `t` (use when interactive apps keep the
  /// event queue non-empty).
  void run_until(double t) { sim_->run_until(t); }

 private:
  cluster::ExecutionSite* register_node(cluster::ExecutionSite& site,
                                        bool datanode, bool tracker);
  /// True once the profiler watchdog declared this run stalled.
  [[nodiscard]] bool stalled() const;

  Options options_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<telemetry::Hub> tel_;
  std::unique_ptr<cluster::HybridCluster> cluster_;
  std::unique_ptr<storage::Hdfs> hdfs_;
  std::unique_ptr<mapred::MapReduceEngine> mr_;
  std::unique_ptr<faults::FaultInjector> faults_;
};

}  // namespace hybridmr::harness
