// HybridCluster: the container for a mixed native/virtual testbed.
//
// Owns all machines and VMs, provides builder helpers for the paper's
// topologies (24 PMs, k VMs per PM, Dom-0 nodes, ...) and cluster-wide
// metric aggregation (energy, utilization, powered server count).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/calibration.h"
#include "cluster/machine.h"
#include "cluster/migration.h"
#include "cluster/realloc.h"
#include "sim/simulation.h"

namespace hybridmr::telemetry {
struct Hub;
}  // namespace hybridmr::telemetry

namespace hybridmr::cluster {

class HybridCluster {
 public:
  explicit HybridCluster(sim::Simulation& sim,
                         const Calibration& cal = Calibration::standard())
      : sim_(sim), cal_(cal), realloc_(sim), migrator_(sim, cal) {}

  HybridCluster(const HybridCluster&) = delete;
  HybridCluster& operator=(const HybridCluster&) = delete;

  // --- construction ---

  /// Adds one physical machine with the calibrated capacity.
  Machine* add_machine(const std::string& name = "");

  /// Adds `n` physical machines named <prefix>0..<prefix>n-1.
  std::vector<Machine*> add_machines(int n, const std::string& prefix = "pm");

  /// Adds a VM on `host` with the calibrated VM shape (or overrides; a
  /// negative override falls back to the calibrated value).
  VirtualMachine* add_vm(Machine& host, const std::string& name = "",
                         sim::CoreShare vcpus = sim::CoreShare{-1},
                         sim::MegaBytes memory_mb = sim::MegaBytes{-1});

  /// Adds `count` VMs to `host`.
  std::vector<VirtualMachine*> virtualize(Machine& host, int count);

  // --- lookup ---
  [[nodiscard]] const std::vector<std::unique_ptr<Machine>>& machines() const {
    return machines_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<VirtualMachine>>& vms()
      const {
    return vms_;
  }
  [[nodiscard]] Machine* machine(const std::string& name) const;
  [[nodiscard]] VirtualMachine* vm(const std::string& name) const;
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] const Calibration& calibration() const { return cal_; }
  [[nodiscard]] Migrator& migrator() { return migrator_; }

  /// The cluster's deferred-reallocation coordinator (see realloc.h).
  [[nodiscard]] ReallocCoordinator& reallocator() { return realloc_; }

  // --- cluster-wide metrics ---

  /// Total energy consumed by powered machines over [t0, t1].
  [[nodiscard]] sim::Joules energy_joules(sim::SimTime t0,
                                          sim::SimTime t1) const;

  /// Mean utilization of one resource across powered machines in [t0, t1].
  [[nodiscard]] double mean_utilization(ResourceKind kind, double t0,
                                        double t1) const;

  [[nodiscard]] int powered_machines() const;

  /// Powers off every machine hosting neither VMs nor workloads.
  int power_off_idle();

  /// Attaches the whole cluster (machines, migrator, and machines added
  /// later) to a telemetry hub. Null detaches.
  void set_telemetry(telemetry::Hub* hub);
  [[nodiscard]] telemetry::Hub* telemetry() const { return tel_; }

 private:
  sim::Simulation& sim_;
  const Calibration& cal_;
  // Declared before the machines: they deregister from it on destruction.
  ReallocCoordinator realloc_;
  Migrator migrator_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::unique_ptr<VirtualMachine>> vms_;
  telemetry::Hub* tel_ = nullptr;
};

}  // namespace hybridmr::cluster
