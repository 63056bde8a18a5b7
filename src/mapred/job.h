// A submitted MapReduce job: task lists, phase timing, completion metrics.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "mapred/bitmap.h"
#include "mapred/job_spec.h"
#include "mapred/task.h"
#include "storage/hdfs.h"

namespace hybridmr::mapred {

enum class JobState { kPending, kMapping, kReducing, kDone, kFailed };

/// Where a job's tasks may run — set by HybridMR's Phase I placement.
enum class PlacementPool { kAny, kNativeOnly, kVirtualOnly };

const char* to_string(JobState s);

class Job {
 public:
  Job(int id, JobSpec spec) : id_(id), spec_(std::move(spec)) {}

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  [[nodiscard]] JobState state() const { return state_; }
  /// Terminal either way: completed or failed past its retry bound.
  [[nodiscard]] bool finished() const {
    return state_ == JobState::kDone || state_ == JobState::kFailed;
  }
  [[nodiscard]] bool succeeded() const { return state_ == JobState::kDone; }

  [[nodiscard]] const std::vector<std::unique_ptr<Task>>& maps() const {
    return maps_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Task>>& reduces() const {
    return reduces_;
  }
  [[nodiscard]] int maps_done() const { return maps_done_; }
  [[nodiscard]] int reduces_done() const { return reduces_done_; }

  /// Live: submitted and not yet terminal (kMapping or kReducing). The
  /// engine indexes exactly these jobs for dispatch.
  [[nodiscard]] bool live() const {
    return state_ == JobState::kMapping || state_ == JobState::kReducing;
  }

  /// The indices of the tasks of `type` currently pending (not completed,
  /// no running attempt): what a pick reads instead of loading each Task.
  /// Written only by Task::sync_pending(), which also feeds the
  /// engine-wide schedulable-pending counters. Audit builds cross-check
  /// the bits against every task's flag.
  [[nodiscard]] const Bitmap& pending_set(TaskType type) const {
    return pending_[type == TaskType::kMap ? 0 : 1];
  }
  /// How many tasks of `type` are pending. O(1).
  [[nodiscard]] int pending(TaskType type) const {
    return static_cast<int>(pending_set(type).size());
  }

  /// Number of attempts currently running across all tasks. O(1): a
  /// counter maintained by TaskTracker::launch()/release() through the
  /// engine, which keys its fair-order index of live jobs by it (audit
  /// builds cross-check the counter against the scan and the index key).
  [[nodiscard]] int running_tasks() const { return running_attempts_; }

  // --- timing (simulated seconds; -1 until reached) ---
  [[nodiscard]] double submit_time() const { return submit_time_; }
  // sim-lint: allow(unused-api) mapred_test: phase timing order
  [[nodiscard]] double map_phase_end() const { return map_phase_end_; }
  [[nodiscard]] double finish_time() const { return finish_time_; }

  /// Job completion time (submission to finish).
  [[nodiscard]] double jct() const {
    return finish_time_ >= 0 ? finish_time_ - submit_time_ : -1;
  }
  [[nodiscard]] double map_phase_seconds() const {
    return map_phase_end_ >= 0 ? map_phase_end_ - submit_time_ : -1;
  }
  [[nodiscard]] double reduce_phase_seconds() const {
    return finish_time_ >= 0 && map_phase_end_ >= 0
               ? finish_time_ - map_phase_end_
               : -1;
  }

  // --- data-flow helpers ---
  [[nodiscard]] sim::MegaBytes total_map_output_mb() const {
    return spec_.input_mb() * spec_.map_selectivity;
  }
  [[nodiscard]] sim::MegaBytes shuffle_mb_per_reducer() const {
    return reduces_.empty()
               ? sim::MegaBytes{0}
               : total_map_output_mb() / static_cast<double>(reduces_.size());
  }

  [[nodiscard]] storage::Hdfs::FileId input_file() const {
    return input_file_;
  }

  /// Fired when the last reduce completes.
  std::function<void(Job&)> on_complete;

  [[nodiscard]] PlacementPool pool() const { return pool_; }
  /// True if this job's tasks may run on a site of the given kind.
  [[nodiscard]] bool pool_allows(bool virtual_site) const {
    switch (pool_) {
      case PlacementPool::kAny:
        return true;
      case PlacementPool::kNativeOnly:
        return !virtual_site;
      case PlacementPool::kVirtualOnly:
        return virtual_site;
    }
    return true;
  }

 private:
  friend class MapReduceEngine;
  friend class TaskTracker;
  friend class Task;  // sync_pending() maintains the pending sets
  int id_;
  JobSpec spec_;
  JobState state_ = JobState::kPending;
  storage::Hdfs::FileId input_file_ = 0;
  std::vector<std::unique_ptr<Task>> maps_;
  std::vector<std::unique_ptr<Task>> reduces_;
  int maps_done_ = 0;
  int reduces_done_ = 0;
  std::array<Bitmap, 2> pending_;  // maps, reduces
  int running_attempts_ = 0;
  double submit_time_ = -1;
  double map_phase_end_ = -1;
  double finish_time_ = -1;
  PlacementPool pool_ = PlacementPool::kAny;
};

inline const char* to_string(JobState s) {
  switch (s) {
    case JobState::kPending:
      return "pending";
    case JobState::kMapping:
      return "mapping";
    case JobState::kReducing:
      return "reducing";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "?";
}

}  // namespace hybridmr::mapred
