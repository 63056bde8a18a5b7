// Estimator: statistical models of task run-time performance as a function
// of resource usage/allocation (paper §III-B1, following MROrchestrator
// [31] and TRACON [13]).
//
// Per task it accumulates epoch samples of (allocation, progress rate) and
// fits the paper's model forms:
//   - CPU:    linear regression        rate ~ a + b * cpu_alloc
//   - memory: piecewise-linear         rate ~ pw(mem_ratio)
//   - I/O:    exponential regression   rate ~ a * exp(b * io_alloc)
// The fitted models answer two questions the DRM/IPS ask:
//   1. how long until this task completes (progress-score time series ->
//      estimated completion time), and
//   2. how would its rate change under a different allocation (the
//      "resource imbalance" the PerformanceBalancer redistributes).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "cluster/resources.h"
#include "mapred/task.h"

namespace hybridmr::core {

struct TaskSample {
  double time = 0;
  double progress = 0;
  double rate = 0;  // progress per second since the previous sample
  cluster::Resources demand;
  cluster::Resources alloc;
};

/// Model of one task attempt, built from its sample history.
class TaskModel {
 public:
  void add(const TaskSample& sample);

  [[nodiscard]] const TaskSample& last() const { return samples_.back(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Predicted progress rate under allocation `alloc` for demand `demand`.
  /// Uses the fitted per-resource regressions when enough samples exist,
  /// otherwise the analytic proportional model.
  [[nodiscard]] double predict_rate(const cluster::Resources& alloc,
                                    const cluster::Resources& demand) const;

  /// Estimated seconds to completion at the current rate.
  // sim-lint: allow(unused-api) core_test: the rate-based estimate
  [[nodiscard]] double estimated_remaining_s() const;

  /// Estimated seconds to completion if the task were granted its full
  /// demand (the balancer's target state).
  // sim-lint: allow(unused-api) core_deep_test: the fitted estimate
  [[nodiscard]] double estimated_remaining_at_full_s() const;

  /// Resource with the largest relative gap between demand and allocation
  /// in the latest sample; nullopt when fully satisfied.
  [[nodiscard]] std::optional<cluster::ResourceKind> bottleneck() const;

  /// demand - alloc (componentwise, clamped at 0) from the latest sample.
  [[nodiscard]] cluster::Resources deficit() const;

  /// How much of a node this task occupies (normalized dominant share of
  /// its allocation) — the IPS's per-task interference estimate.
  [[nodiscard]] double interference_score(
      const cluster::Resources& node_capacity) const;

 private:
  std::vector<TaskSample> samples_;
};

/// Registry of task models for every running attempt.
class Estimator {
 public:
  /// Records one epoch observation for `attempt`.
  void observe(const mapred::TaskAttempt& attempt, double now);

  /// Model for an attempt (nullptr before the first observation).
  [[nodiscard]] const TaskModel* model(const mapred::TaskAttempt* a) const;

  /// Drops models for attempts not in the live set (call once per epoch).
  void retain_only(const std::vector<mapred::TaskAttempt*>& live);

  // sim-lint: allow(unused-api) core_test, core_deep_test: live models
  [[nodiscard]] std::size_t tracked() const { return models_.size(); }

 private:
  // Keys point into Task::attempts_; retain_only() drops dead attempts.
  std::map<const mapred::TaskAttempt*, TaskModel> models_;
  std::map<const mapred::TaskAttempt*, double> last_progress_;
  std::map<const mapred::TaskAttempt*, double> last_time_;
};

}  // namespace hybridmr::core
