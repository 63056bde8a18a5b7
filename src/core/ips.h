// Interference Prevention System (paper §III-B2, Algorithm 3).
//
// The IPS continuously tracks the performance of interactive applications
// against their SLAs. On a violation its Arbiter identifies the map/reduce
// tasks interfering with the affected application (via the Estimator's
// interference scores) and mitigates, escalating per task:
//   1. throttle  - cut the task's resource caps (cgroup shares),
//   2. pause     - suspend the task,
//   3. re-queue  - kill the attempt and reschedule it on another node
//                  (Hadoop's speculation machinery guarantees correctness),
// and, independently, live-migrates a purely-batch VM away from the
// violated host using a BestFit bin-packing choice of destination.
// When latency falls back below a restore margin, actions are undone in
// reverse order.
//
// Beyond the paper: an opt-in model-predictive mode
// (IpsOptions::model_predictive, docs/WHATIF.md) ranks candidate
// mitigations — hold, escalate, escalate two, migrate, escalate+migrate —
// by forking short lookahead simulations through a whatif::WhatIfEngine
// and comparing each candidate's predicted SLA recovery and batch
// progress at the horizon, instead of trusting interference scores alone.
#pragma once

#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "core/estimator.h"
#include "interactive/sla.h"
#include "mapred/engine.h"
#include "sim/simulation.h"

namespace hybridmr::telemetry {
struct Hub;
}  // namespace hybridmr::telemetry

namespace hybridmr::whatif {
class WhatIfEngine;
}  // namespace hybridmr::whatif

namespace hybridmr::core {

/// Consecutive healthy epochs required before stepping an action down
/// (hysteresis against throttle/restore flapping); the floor of a host's
/// flap-guard ratchet.
constexpr int kRestoreStreak = 3;

struct IpsOptions {
  double epoch_s = 10.0;
  /// Resume batch work when latency is below margin * SLA.
  double restore_margin = 0.7;
  /// Actions (escalations) applied per violating app per epoch.
  int max_actions_per_epoch = 2;
  bool allow_requeue = true;
  bool allow_vm_migration = true;
  /// Healthy epochs between halvings of a host's flap-guard ratchet: a
  /// host that re-violated soon after restores doubles its required
  /// healthy streak (up to 64), and every `ratchet_decay_epochs`
  /// consecutive healthy epochs halves it back toward `kRestoreStreak`.
  int ratchet_decay_epochs = 6;
  /// Rank candidate mitigations by forked-lookahead prediction instead of
  /// interference scores alone. Requires set_whatif(); see docs/WHATIF.md.
  bool model_predictive = false;
  /// Simulated seconds of lookahead per candidate fork. Must stay inside
  /// the driver's run_until window (TestBed drives in 600 s slices).
  double lookahead_horizon_s = 30.0;
};

/// Algorithm 3: picks victims and destinations.
class Arbiter {
 public:
  explicit Arbiter(Estimator& estimator) : estimator_(&estimator) {}

  /// Interfering tasks on `host`, most interfering first
  /// (TaskInterference[] = GetEstimatedInterference()).
  [[nodiscard]] std::vector<mapred::TaskAttempt*> rank_interferers(
      const cluster::Machine& host,
      const std::vector<mapred::TaskAttempt*>& running) const;

  /// BestFit bin-packing: the powered host with the least spare capacity
  /// that still fits `needed`, excluding hosts in `excluded`.
  [[nodiscard]] cluster::Machine* best_fit_host(
      const cluster::HybridCluster& cluster, const cluster::Resources& needed,
      const std::vector<const cluster::Machine*>& excluded) const;

 private:
  Estimator* estimator_;  // owned by HybridMRScheduler::estimator_
};

/// The order the IPS steps actions down in when several become eligible in
/// one epoch: the oldest attempt first, then by job id, task type and task
/// index. A strict total order over live attempts, so the restores never
/// depend on where the attempts sit in memory (the action map is keyed by
/// pointer).
[[nodiscard]] bool restores_before(const mapred::TaskAttempt& a,
                                   const mapred::TaskAttempt& b);

class InterferencePreventionSystem {
 public:
  struct Stats {
    int violations_seen = 0;
    int throttles = 0;
    int pauses = 0;
    int requeues = 0;
    int vm_migrations = 0;
    int restores = 0;
    /// Candidate lookahead forks evaluated (model-predictive mode).
    int lookaheads = 0;
    /// Epochs where the lookahead chose "hold" (no action beats acting).
    int lookahead_holds = 0;
    bool operator==(const Stats&) const = default;
  };

  InterferencePreventionSystem(sim::Simulation& sim,
                               mapred::MapReduceEngine& mr,
                               cluster::HybridCluster& cluster,
                               interactive::SlaMonitor& monitor,
                               Estimator& estimator, IpsOptions options);
  ~InterferencePreventionSystem();

  InterferencePreventionSystem(const InterferencePreventionSystem&) = delete;
  InterferencePreventionSystem& operator=(
      const InterferencePreventionSystem&) = delete;

  /// One control round: mitigate violations / restore when healthy.
  void epoch();

  void start();
  void stop();

  /// True when the IPS currently manages this attempt (the DRM must not
  /// override its throttles/pauses).
  [[nodiscard]] bool owns(const mapred::TaskAttempt& attempt) const {
    return actions_.contains(const_cast<mapred::TaskAttempt*>(&attempt));
  }

  /// Live managed attempts (throttled or paused).
  // sim-lint: allow(unused-api) ips_regression_test: actions after a crash
  [[nodiscard]] int action_count() const {
    return static_cast<int>(actions_.size());
  }

  /// The flap-guard's current required healthy streak for `host`
  /// (kRestoreStreak when no ratchet is active).
  // sim-lint: allow(unused-api) ips_regression_test: the ratchet decays
  [[nodiscard]] int required_streak(const cluster::Machine& host) const;

  /// True while any per-host map (healthy streak, flap ratchet, last
  /// restore time) still carries state for `host`.
  // sim-lint: allow(unused-api) ips_regression_test: crashed hosts go
  [[nodiscard]] bool tracks_host(const cluster::Machine& host) const;

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attaches the IPS to a telemetry hub (null detaches).
  void set_telemetry(telemetry::Hub* hub) { tel_ = hub; }

  /// Attaches the what-if engine model-predictive mode forks through
  /// (null detaches; without one the IPS falls back to Algorithm 3).
  void set_whatif(whatif::WhatIfEngine* whatif) { whatif_ = whatif; }

 private:
  enum class ActionLevel { kThrottled = 1, kPaused = 2 };
  /// Outcome of the model-predictive arbitration for one violator.
  enum class PredictiveOutcome {
    kApplied,   ///< a candidate was chosen and applied in this process
    kChild,     ///< this is a forked lookahead child — unwind the epoch
    kFallback,  ///< no usable prediction — run Algorithm 3 instead
  };

  /// Returns false only in a forked lookahead child (the caller must
  /// unwind out of the epoch so the child's event loop runs the horizon).
  bool mitigate(interactive::InteractiveApp& app);
  void mitigate_classic(const cluster::Machine& host,
                        const std::vector<mapred::TaskAttempt*>& ranked);
  PredictiveOutcome mitigate_predictive(
      interactive::InteractiveApp& app, const cluster::Machine& host,
      const std::vector<mapred::TaskAttempt*>& ranked);
  void restore_where_healthy();
  void escalate(mapred::TaskAttempt& attempt);
  void migrate_batch_vm(const cluster::Machine& violated_host);
  /// Drops stale control state: actions whose attempt died between epochs
  /// (backstop — the release observer erases them event-driven), and
  /// per-host hysteresis entries for crashed (unpowered) machines.
  void prune_stale_state();
  /// Sum of finished map+reduce tasks across all jobs (the lookahead's
  /// batch-progress / makespan-cost proxy).
  [[nodiscard]] double batch_progress() const;

  sim::Simulation& sim_;
  mapred::MapReduceEngine& mr_;
  cluster::HybridCluster& cluster_;
  interactive::SlaMonitor& monitor_;
  Estimator& estimator_;
  IpsOptions options_;
  Arbiter arbiter_;
  Stats stats_;
  sim::PeriodicHandle ticker_;
  std::map<mapred::TaskAttempt*, ActionLevel> actions_;
  std::map<const cluster::Machine*, int> healthy_streak_;
  // Re-offense backoff: hosts that violate soon after a restore need an
  // exponentially longer healthy streak before the next restore.
  std::map<const cluster::Machine*, int> required_streak_;
  std::map<const cluster::Machine*, double> last_restore_;
  telemetry::Hub* tel_ = nullptr;           // owned by the harness
  whatif::WhatIfEngine* whatif_ = nullptr;  // owned by HybridMRScheduler
  /// Token for the engine release observer registered in the constructor
  /// (erases actions_ entries the moment their attempt leaves its tracker).
  std::size_t release_observer_token_ = 0;

  /// kIpsAction trace instant for one arbitration action; `extra` args
  /// follow the "target" arg.
  void note_action(const char* action, const std::string& target,
                   const std::string& track,
                   std::vector<std::pair<std::string, std::string>> extra = {});
};

}  // namespace hybridmr::core
