// TaskTracker: per-node slot manager (Hadoop 1.x model).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/machine.h"
#include "mapred/task.h"

namespace hybridmr::mapred {

class TaskTracker {
 public:
  TaskTracker(MapReduceEngine& engine, cluster::ExecutionSite& site,
              int map_slots, int reduce_slots)
      : engine_(&engine),
        site_(&site),
        map_slots_(map_slots),
        reduce_slots_(reduce_slots) {}

  [[nodiscard]] cluster::ExecutionSite& site() const { return *site_; }
  [[nodiscard]] int map_slots() const { return map_slots_; }
  [[nodiscard]] int reduce_slots() const { return reduce_slots_; }

  [[nodiscard]] int free_slots(TaskType type) const {
    return type == TaskType::kMap ? map_slots_ - running_maps_
                                  : reduce_slots_ - running_reduces_;
  }

  [[nodiscard]] const std::vector<TaskAttempt*>& running() const {
    return running_;
  }

  /// Creates, registers and starts a new attempt of `task` here.
  TaskAttempt* launch(Task& task);

  /// The rigid per-slot resource share of stock Hadoop-1 (fixed JVM heap,
  /// partitioned I/O), applied to every attempt as its base caps. HybridMR's
  /// DRM replaces these static caps with demand-driven allocations.
  [[nodiscard]] cluster::Resources static_slot_share(TaskType type) const;

  /// Bookkeeping when an attempt finishes or is killed.
  void release(TaskAttempt* attempt);

  /// Blacklisted trackers hold their slots but receive no new work
  /// (heartbeat timeout / crashed host). Set by the engine.
  [[nodiscard]] bool blacklisted() const { return blacklisted_; }

  /// Audit checkpoint (no-op unless HYBRIDMR_AUDIT): per-type running
  /// counts stay within [0, slots] and sum to the running list's size.
  void audit_verify_slots() const;

 private:
  friend class MapReduceEngine;  // blacklist + dispatch-index management
  MapReduceEngine* engine_;      // owned by TestBed::mr_
  cluster::ExecutionSite* site_;  // owned by HybridCluster
  int map_slots_;
  int reduce_slots_;
  int running_maps_ = 0;
  int running_reduces_ = 0;
  bool blacklisted_ = false;
  // Position in the engine's trackers_ vector; keys the free-slot offer
  // set. Assigned by add_tracker, renumbered on remove_tracker.
  std::uint32_t index_ = 0;
  std::vector<TaskAttempt*> running_;
};

}  // namespace hybridmr::mapred
