// Live VM migration (Xen-style iterative pre-copy).
//
// The model reproduces the dependencies measured in the paper's Fig. 10(b,c):
// migration time grows with VM memory and with guest write activity (dirty
// rate), and downtime is small but erratic under load. The pre-copy stream is
// injected as a real network workload on both hosts, so migrations slow down
// — and are slowed down by — collocated traffic.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/calibration.h"
#include "cluster/machine.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace hybridmr::telemetry {
struct Hub;
}  // namespace hybridmr::telemetry

namespace hybridmr::cluster {

struct MigrationPlan {
  sim::Duration precopy_seconds;  // at nominal migration bandwidth
  sim::Duration downtime_seconds;
  sim::MegaBytes transferred_mb;
  int rounds = 0;
  bool converged = true;
};

/// Closed-form pre-copy model.
class MigrationModel {
 public:
  explicit MigrationModel(const Calibration& cal) : cal_(cal) {}

  /// Plans a migration of `memory` of guest memory with the given page
  /// dirty rate over a link with `bw` available for migration traffic.
  [[nodiscard]] MigrationPlan plan(sim::MegaBytes memory, sim::MBps dirty_rate,
                                   sim::MBps bw) const;

  /// Estimated page-dirty rate for a VM from its resident workloads'
  /// active memory.
  [[nodiscard]] sim::MBps dirty_rate_mbps(const VirtualMachine& vm) const;

 private:
  const Calibration& cal_;
};

struct MigrationRecord {
  std::string vm;
  std::string from;
  std::string to;
  sim::SimTime started_at = 0;
  sim::Duration precopy_seconds;  // actual, including network contention
  sim::Duration downtime_seconds;
  sim::MegaBytes transferred_mb;
  int rounds = 0;
  /// Rolled back before the handoff (source/dest died mid-migration).
  bool aborted = false;
};

/// Multiplier with mean exactly 1: exp(N(-sigma^2/2, sigma)). Plain
/// exp(N(0, sigma)) has mean exp(sigma^2/2), which would bias every jittered
/// quantity above its calibrated model.
[[nodiscard]] double unit_mean_lognormal(sim::Rng& rng, double sigma);

/// Executes live migrations inside the simulation.
class Migrator {
 public:
  using DoneFn = std::function<void(const MigrationRecord&)>;

  Migrator(sim::Simulation& sim, const Calibration& cal)
      : sim_(sim), cal_(cal), model_(cal) {}

  /// Starts migrating `vm` to `dest`. Returns false (and does nothing) if
  /// the VM is already migrating, detached, or already on `dest`.
  bool migrate(VirtualMachine& vm, Machine& dest, DoneFn done = {});

  /// Aborts every in-flight migration whose source or destination is
  /// `machine` (the machine-crash path): the pre-copy streams are torn
  /// down, a VM paused for downtime is resumed, and the VM stays on its
  /// source host as if the migration had never been attempted. The aborted
  /// record lands in history() with `aborted = true`; the migration's done
  /// callback is NOT fired. Returns the number of migrations aborted.
  int abort_involving(Machine& machine);

  // sim-lint: allow(unused-api) cluster_test, faults_test: finished moves
  [[nodiscard]] const std::vector<MigrationRecord>& history() const {
    return history_;
  }

  /// Attaches the migrator to a telemetry hub (null detaches).
  void set_telemetry(telemetry::Hub* hub);

  /// Log-space stddev of the per-migration dirty-rate jitter.
  static constexpr double kDirtyRateJitterSigma = 0.5;

 private:
  /// State of one in-flight migration, shared between the stream/downtime
  /// closures and the abort path.
  struct InFlight {
    std::shared_ptr<MigrationRecord> record;
    VirtualMachine* vm = nullptr;
    Machine* src = nullptr;
    Machine* dest = nullptr;
    std::weak_ptr<Workload> out_stream;
    std::weak_ptr<Workload> in_stream;
    sim::EventId downtime_event{};
    bool in_downtime = false;
    DoneFn done;
  };

  /// Dirty rate with bursty (unit-mean lognormal) jitter applied.
  sim::MBps jittered_dirty_rate(const VirtualMachine& vm);
  /// Downtime elapsed: hand the VM over and record the migration.
  void complete(const std::shared_ptr<InFlight>& flight);
  void drop_flight(const std::shared_ptr<InFlight>& flight);

  sim::Simulation& sim_;
  const Calibration& cal_;
  MigrationModel model_;
  std::vector<MigrationRecord> history_;
  std::vector<std::shared_ptr<InFlight>> active_;
  telemetry::Hub* tel_ = nullptr;
};

}  // namespace hybridmr::cluster
