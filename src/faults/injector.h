// FaultInjector: deterministic, seed-driven failure injection.
//
// Executes a FaultSchedule against a live testbed and drives the recovery
// machinery end to end: machine crash + reboot (VM/tracker teardown, HDFS
// replica loss and re-replication), task-attempt failures with Hadoop-style
// bounded retries, tracker heartbeat timeouts with blacklisting and map
// re-execution, and rollback of migrations whose endpoints died. All victim
// picks and inter-arrival times come from the schedule's private RNG, so a
// chaos run reproduces bit-for-bit without disturbing the simulation's main
// random stream.
#pragma once

#include <vector>

#include "cluster/cluster.h"
#include "faults/schedule.h"
#include "mapred/engine.h"
#include "storage/hdfs.h"

namespace hybridmr::telemetry {
struct Hub;
}  // namespace hybridmr::telemetry

namespace hybridmr::faults {

class FaultInjector {
 public:
  struct Stats {
    int machine_crashes = 0;
    int machine_reboots = 0;
    int task_failures = 0;
    int tracker_timeouts = 0;
    int tracker_restores = 0;
    int migrations_aborted = 0;
    int datanodes_crashed = 0;
  };

  FaultInjector(sim::Simulation& sim, cluster::HybridCluster& cluster,
                storage::Hdfs& hdfs, mapred::MapReduceEngine& mr,
                FaultSchedule schedule)
      : sim_(sim),
        cluster_(cluster),
        hdfs_(hdfs),
        mr_(mr),
        schedule_(std::move(schedule)),
        rng_(sim.named_rng("faults.injector", schedule_.seed)) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every one-shot fault and starts the task-failure stream.
  /// Call once, before running the simulation.
  void arm();

  // --- direct injection (tests / custom chaos drivers) ---

  /// Crashes `machine` now: in-flight migrations touching it are rolled
  /// back, its trackers are lost (attempts requeued, map outputs
  /// re-executed), its DataNodes die (replicas re-replicated from
  /// survivors; jobs whose input lost its last replica fail), remaining
  /// workloads are torn down, VMs detach and the host powers off. With
  /// `reboot_after >= 0` the machine comes back — empty DataNodes
  /// re-registered, trackers un-blacklisted — after that delay. Returns
  /// false when the machine is already down.
  bool crash_machine(cluster::Machine& machine,
                     sim::Duration reboot_after = sim::Duration{-1.0});

  /// Reverses a crash: powers the machine on, re-attaches its VMs,
  /// re-registers (empty) DataNodes and restores its trackers.
  void reboot_machine(cluster::Machine& machine);

  /// Fails one running attempt — the first whose label starts with
  /// `label_prefix`, or a seeded-random one when empty. Returns true if an
  /// attempt was failed.
  bool fail_attempt(const std::string& label_prefix = "");

  /// Heartbeat timeout for the tracker on `site`; with `restore_after >=
  /// 0` the heartbeat comes back after that delay.
  bool timeout_tracker(cluster::ExecutionSite& site,
                       sim::Duration restore_after = sim::Duration{-1.0});

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Machines currently crashed (not yet rebooted).
  // sim-lint: allow(unused-api) faults_test: crashed machines reboot
  [[nodiscard]] int machines_down() const {
    return static_cast<int>(down_.size());
  }

  /// Attaches the injector to a telemetry hub (null detaches).
  void set_telemetry(telemetry::Hub* hub) { tel_ = hub; }

 private:
  /// Everything needed to undo a crash on reboot.
  struct DownMachine {
    // Every pointer here is owned by HybridCluster.
    cluster::Machine* machine = nullptr;
    std::vector<cluster::VirtualMachine*> vms;
    // Roles to restore on reboot.
    std::vector<cluster::ExecutionSite*> tracker_sites;
    std::vector<cluster::ExecutionSite*> datanode_sites;
  };

  void fire(const FaultSpec& spec);
  void schedule_next_task_failure();
  [[nodiscard]] cluster::Machine* pick_machine(const std::string& target);
  [[nodiscard]] bool is_down(const cluster::Machine& machine) const;

  sim::Simulation& sim_;
  cluster::HybridCluster& cluster_;
  storage::Hdfs& hdfs_;
  mapred::MapReduceEngine& mr_;
  FaultSchedule schedule_;
  // The failure clocks draw from a named stream in Simulation::named_rngs_,
  // so they never perturb the main stream.
  sim::Rng& rng_;
  Stats stats_;
  std::vector<DownMachine> down_;
  telemetry::Hub* tel_ = nullptr;
};

}  // namespace hybridmr::faults
