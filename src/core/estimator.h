// Estimator: per-task run-time state for the DRM and IPS (paper §III-B1).
//
// The paper fits per-task regression models of rate against allocation,
// after MROrchestrator [31] and TRACON [13]. Here no decision asks such a
// model: the PerformanceBalancer lifts caps and admits memory, and the IPS
// ranks interferers by their share of the host. So the estimator keeps
// each running attempt's latest epoch sample, the (demand, allocation)
// pair that names its bottleneck resource and its interference score.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "cluster/resources.h"
#include "mapred/task.h"

namespace hybridmr::core {

/// An attempt's latest epoch sample: what it asked for and what it got.
struct TaskModel {
  cluster::Resources demand;
  cluster::Resources alloc;

  /// Resource with the largest relative gap between demand and allocation;
  /// nullopt when fully satisfied.
  [[nodiscard]] std::optional<cluster::ResourceKind> bottleneck() const;

  /// How much of a node this task occupies (normalized dominant share of
  /// its allocation) — the IPS's per-task interference estimate.
  [[nodiscard]] double interference_score(
      const cluster::Resources& node_capacity) const;
};

/// The models of every running attempt, keyed by attempt.
class Estimator {
 public:
  /// Records one epoch observation for `attempt`. An observation at a
  /// later instant than the attempt's previous one sets its model to the
  /// attempt's current demand and allocation; the first observation only
  /// records the instant.
  void observe(const mapred::TaskAttempt& attempt, double now);

  /// Model for an attempt (nullptr until it exists; see observe()).
  [[nodiscard]] const TaskModel* model(const mapred::TaskAttempt* a) const;

  /// Drops the records of attempts not in the live set (call once per
  /// epoch).
  void retain_only(const std::vector<mapred::TaskAttempt*>& live);

  // sim-lint: allow(unused-api) core_test, core_deep_test: live records
  [[nodiscard]] std::size_t tracked() const { return records_.size(); }

 private:
  struct Record {
    double seen = 0;                 // instant of the last observation
    std::optional<TaskModel> model;  // see observe()
  };
  // Keys point into Task::attempts_; retain_only() drops dead attempts.
  std::map<const mapred::TaskAttempt*, Record> records_;
};

}  // namespace hybridmr::core
