// Tasks and task attempts.
//
// A Task is a logical unit of job work (one map split or one reduce
// partition); a TaskAttempt is one execution of it on a TaskTracker. Tasks
// can have multiple attempts (speculative execution, IPS re-queues); the
// first attempt to finish wins and the rest are killed, exactly as in
// Hadoop 1.x.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/machine.h"
#include "storage/hdfs.h"

namespace hybridmr::mapred {

class Job;
class TaskTracker;
class MapReduceEngine;
class TaskAttempt;

enum class TaskType { kMap, kReduce };

class Task {
 public:
  Task(Job& job, TaskType type, int index)
      : job_(&job), type_(type), index_(index) {}

  [[nodiscard]] Job& job() const { return *job_; }
  [[nodiscard]] TaskType type() const { return type_; }
  [[nodiscard]] int index() const { return index_; }

  [[nodiscard]] bool completed() const { return completed_; }
  /// Wall time the winning attempt ran (valid once completed).
  [[nodiscard]] sim::Duration duration() const { return duration_; }
  /// Where the winning attempt ran (shuffle sources read map output here).
  [[nodiscard]] cluster::ExecutionSite* output_site() const {
    return output_site_;
  }

  // sim-lint: allow(unused-api) mapred_test, property_test: attempts run
  [[nodiscard]] const std::vector<std::unique_ptr<TaskAttempt>>& attempts()
      const {
    return attempts_;
  }
  [[nodiscard]] TaskAttempt* running_attempt() const;
  [[nodiscard]] int running_count() const;
  /// Pending: not completed and nothing running (never launched, or the
  /// previous attempt was killed). O(1): a cached flag reconciled by
  /// sync_pending() at every attempt/completion transition, which also
  /// maintains the job's pending set and the engine-wide pending counters
  /// dispatch reads (audit builds cross-check all three against a full
  /// scan).
  [[nodiscard]] bool pending() const { return pending_; }

  /// One speculative copy per task, like Hadoop.
  bool speculative_launched = false;

  /// Trackers this task must not run on again (IPS re-queue exclusions).
  std::set<const TaskTracker*> banned_trackers;

 private:
  friend class MapReduceEngine;
  friend class TaskTracker;
  friend class TaskAttempt;
  /// Reconciles the cached pending flag (and the owning job's pending set
  /// and the engine's pending counters) with the completed/running state.
  /// Idempotent — safe to call from nested transitions (a kill inside a
  /// finish inside a launch).
  void sync_pending(MapReduceEngine& engine);
  Job* job_;
  TaskType type_;
  int index_;
  // Attempts that ended in genuine failure (not kills): compared against
  // the engine's kMaxAttempts, like Hadoop's mapred.map.max.attempts.
  int failed_attempts_ = 0;
  bool completed_ = false;
  bool pending_ = false;
  sim::Duration duration_{-1};
  // Where the map output lives; owned by HybridCluster.
  cluster::ExecutionSite* output_site_ = nullptr;
  std::vector<std::unique_ptr<TaskAttempt>> attempts_;
};

/// One execution of a task: a small state machine chaining HDFS flows and
/// compute workloads on the tracker's execution site.
class TaskAttempt {
 public:
  TaskAttempt(Task& task, TaskTracker& tracker, MapReduceEngine& engine);
  ~TaskAttempt();

  TaskAttempt(const TaskAttempt&) = delete;
  TaskAttempt& operator=(const TaskAttempt&) = delete;

  /// Begins execution (phases are derived from the job spec here).
  void start();

  /// Cancels the attempt without completing its task. Frees the slot.
  void kill();

  [[nodiscard]] bool running() const {
    return started_ && !finished_ && !killed_;
  }
  // sim-lint: allow(unused-api) mapred_test, property_test: attempt ended
  [[nodiscard]] bool finished() const { return finished_; }

  [[nodiscard]] Task& task() const { return *task_; }
  [[nodiscard]] TaskTracker& tracker() const { return *tracker_; }
  [[nodiscard]] cluster::ExecutionSite& site() const;

  /// Overall fraction complete in [0, 1] (phase-weighted).
  [[nodiscard]] double progress() const;
  [[nodiscard]] double elapsed() const;
  /// Progress per second since launch (straggler detection).
  [[nodiscard]] double progress_rate() const;
  [[nodiscard]] double started_at() const { return started_at_; }

  // --- DRM / IPS control surface ---

  /// cgroup-style caps applied to this attempt's current and future
  /// workloads.
  void set_caps(const cluster::Resources& caps);
  [[nodiscard]] const cluster::Resources& caps() const { return caps_; }
  void set_paused(bool paused);
  [[nodiscard]] bool paused() const { return paused_; }

  /// The static slot share this attempt started with (stock Hadoop's rigid
  /// partitioning); the DRM uses it as the baseline when relaxing caps.
  [[nodiscard]] const cluster::Resources& base_caps() const {
    return base_caps_;
  }
  void set_base_caps(const cluster::Resources& caps) {
    base_caps_ = caps;
    set_caps(caps);
  }

  /// Resources the attempt is currently granted / asking for (zero between
  /// phases and for flows running on other sites).
  [[nodiscard]] cluster::Resources current_allocation() const;
  [[nodiscard]] cluster::Resources current_demand() const;

  /// Stable display name, e.g. "sort-j0-m3" (job name, job id, task).
  [[nodiscard]] std::string label() const;

  /// True if this running attempt depends on `site` for anything beyond
  /// its own slot: it runs there, or has an in-flight flow sourced or
  /// served there (a shuffle launches every fetch at once, so no fetch
  /// waits in a queue). Used by the crash path to decide which attempts to
  /// requeue.
  [[nodiscard]] bool depends_on(const cluster::ExecutionSite& s) const;

 private:
  struct Phase {
    enum class Kind { kRead, kStream, kCompute, kLocalWrite, kShuffle,
                      kWrite };
    Kind kind;
    double amount;  // MB for I/O phases, seconds for compute/stream
    // kStream only: the pipelined record-processing demand (cpu + disk),
    // sized so the phase finishes in `amount` seconds at full speed.
    cluster::Resources demand;
  };

  void build_phases();
  void next_phase();
  void begin_shuffle(sim::MegaBytes total_mb);
  void flow_completed(sim::MegaBytes mb);
  void phase_finished();
  void teardown();

  Task* task_;
  TaskTracker* tracker_;
  MapReduceEngine* engine_;

  std::vector<Phase> phases_;
  std::vector<double> weights_;  // estimated duration share per phase
  int phase_idx_ = -1;
  double completed_weight_ = 0;

  cluster::WorkloadPtr workload_;  // compute / local-write phases
  struct ActiveFlow {
    storage::FlowHandle handle;
    sim::MegaBytes amount_mb;
    // Sites a shuffle fetch pulls from: one for a local or loopback fetch,
    // every member of a batched remote fetch (the crash path requeues this
    // attempt when any of them dies mid-fetch). Empty for HDFS
    // reads/writes whose endpoints the storage layer picked.
    std::vector<cluster::ExecutionSite*> srcs = {};
  };
  std::vector<ActiveFlow> flows_;  // in-flight HDFS flows of this phase
  sim::MegaBytes flow_done_mb_;
  double phase_flow_total_ = 0;

  bool started_ = false;
  bool finished_ = false;
  bool killed_ = false;
  bool paused_ = false;
  cluster::Resources caps_ = cluster::Resources::unbounded();
  cluster::Resources base_caps_ = cluster::Resources::unbounded();
  double started_at_ = -1;
};

}  // namespace hybridmr::mapred
