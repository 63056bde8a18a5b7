// MapReduceEngine: the JobTracker. Owns jobs and trackers, drives task
// dispatch, phase transitions and speculative execution.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/calibration.h"
#include "mapred/job.h"
#include "mapred/scheduler.h"
#include "mapred/task.h"
#include "mapred/tracker.h"
#include "sim/simulation.h"
#include "storage/hdfs.h"
#include "telemetry/profiler.h"

namespace hybridmr::telemetry {
struct Hub;
}  // namespace hybridmr::telemetry

namespace hybridmr::mapred {

/// Running attempts on one physical host, over the trackers on its own
/// site and on its VMs: what the JobTracker's per-host gate reads.
struct HostLoad {
  const cluster::Machine* host = nullptr;
  int running = 0;
  /// 2 running attempts per core, like slots sized to the hardware.
  int cap = 0;
  [[nodiscard]] bool capped() const { return running >= cap; }
};

class MapReduceEngine {
 public:
  struct Options {
    bool speculative_execution = true;
    /// Hadoop's mapred.map.max.attempts: a task whose attempts genuinely
    /// fail this many times takes its whole job down.
    int max_attempts = 4;
  };

  MapReduceEngine(sim::Simulation& sim, storage::Hdfs& hdfs,
                  const cluster::Calibration& cal,
                  std::unique_ptr<TaskScheduler> scheduler, Options options);

  MapReduceEngine(sim::Simulation& sim, storage::Hdfs& hdfs,
                  const cluster::Calibration& cal,
                  std::unique_ptr<TaskScheduler> scheduler = nullptr)
      : MapReduceEngine(sim, hdfs, cal, std::move(scheduler), Options{}) {}

  MapReduceEngine(const MapReduceEngine&) = delete;
  MapReduceEngine& operator=(const MapReduceEngine&) = delete;

  /// Registers a TaskTracker on `site`. Slot counts default to the
  /// calibrated Hadoop configuration (2 map + 2 reduce).
  TaskTracker* add_tracker(cluster::ExecutionSite& site, int map_slots = -1,
                           int reduce_slots = -1);

  /// Decommissions the TaskTracker on `site`. Fails (returns false) when
  /// the tracker still runs attempts; drain it first (IPS requeue or wait).
  bool remove_tracker(cluster::ExecutionSite& site);

  /// The tracker registered on `site`, or nullptr.
  [[nodiscard]] TaskTracker* tracker_on(const cluster::ExecutionSite& site)
      const;

  [[nodiscard]] const std::vector<std::unique_ptr<TaskTracker>>& trackers()
      const {
    return trackers_;
  }

  /// Submits a job; stages its input file across the datanodes first.
  /// Throws std::invalid_argument when the cluster has no TaskTracker (or
  /// Hdfs::stage_file rejects the input).
  Job* submit(const JobSpec& spec,
              PlacementPool pool = PlacementPool::kAny);
  /// Submits a job over an already staged input file.
  Job* submit(const JobSpec& spec, storage::Hdfs::FileId input,
              PlacementPool pool = PlacementPool::kAny);

  [[nodiscard]] const std::vector<std::unique_ptr<Job>>& jobs() const {
    return jobs_;
  }
  /// Jobs submitted and not yet done or failed.
  [[nodiscard]] int active_jobs() const {
    return static_cast<int>(live_.in_fair_order().size());
  }

  /// All currently running attempts across all trackers (DRM's view).
  [[nodiscard]] std::vector<TaskAttempt*> running_attempts() const;

  /// Fills every free slot it can. Called internally on submit/completion;
  /// safe to call at any time.
  void dispatch();

  /// Kills a running attempt and re-queues its task, optionally banning the
  /// tracker it ran on (IPS migration/abort action). The MapReduce master
  /// treats it like a failed speculative copy: correctness is unaffected.
  void requeue(TaskAttempt& attempt, bool ban_tracker);

  /// Records a genuine attempt failure (bad record, JVM crash — injected
  /// by the fault layer). Counts against Options::max_attempts; within the
  /// bound the task is requeued (banning the tracker when asked), past it
  /// the whole job fails, like Hadoop. Returns true if the job survived.
  bool fail_attempt(TaskAttempt& attempt, bool ban_tracker = false);

  /// Fails an active job outright: kills its running attempts, marks it
  /// kFailed, fires on_complete. No-op (returns) on terminal jobs.
  void fail_job(Job& job, const std::string& reason);

  /// Heartbeat timeout / host crash for the tracker on `site`: blacklists
  /// it, requeues its running attempts and every attempt that depends on
  /// the site (in-flight shuffle fetches), and schedules completed map
  /// outputs stored there for re-execution (Hadoop 1 semantics). Returns
  /// false when no tracker is registered on `site`.
  bool mark_tracker_lost(cluster::ExecutionSite& site);

  /// Clears the blacklist for the tracker on `site` (heartbeats resumed /
  /// host rebooted) and redispatches. Returns false when unknown.
  bool restore_tracker(cluster::ExecutionSite& site);

  /// Attaches the engine to a telemetry hub (null detaches); counters are
  /// registered and cached here so per-task recording is map-lookup-free.
  void set_telemetry(telemetry::Hub* hub);
  [[nodiscard]] telemetry::Hub* telemetry() const { return tel_; }

  // --- internals used by TaskAttempt / TaskTracker ---
  void attempt_finished(TaskAttempt& attempt);
  /// Re-derives `tracker`'s offer-set membership after a slot grant or
  /// release, a blacklist transition or its host crossing the load cap.
  /// Idempotent and O(log trackers); called from TaskTracker::launch/
  /// release, add_host_running and the blacklist paths so the offer set is
  /// never stale when dispatch() reads it.
  void update_offer(TaskTracker& tracker);
  /// Moves the running-attempt total of `tracker`'s physical host by
  /// `delta`, re-offering or withdrawing every tracker on the host when
  /// the total crosses the host cap. O(1) on the tracker's cached load
  /// record; called only by TaskTracker::launch()/release().
  void add_host_running(const TaskTracker& tracker, int delta);
  /// Applies a change of `delta` pending tasks of `type` in `job` to the
  /// engine-wide schedulable counters (a no-op unless the job is eligible
  /// for `type`). Called only by Task::sync_pending().
  void add_schedulable(const Job& job, TaskType type, int delta);
  /// Moves `job`'s running-attempt count by `delta` and re-keys it in the
  /// fair-order index. Called only by TaskTracker::launch()/release().
  void add_running(Job& job, int delta);
  /// Registers `fn` to run whenever an attempt leaves its tracker — every
  /// death path funnels through TaskTracker::release (normal finish, kill,
  /// IPS requeue, bounded-retry failure, tracker loss, crash teardown), so
  /// this is the one event-driven signal controllers keyed by TaskAttempt*
  /// (the IPS action map) need to drop state the moment it goes stale
  /// instead of polling at their next epoch. Returns a token for
  /// remove_release_observer(); slots are never erased (tokens stay
  /// stable), removal nulls the entry.
  std::size_t add_release_observer(std::function<void(const TaskAttempt&)> fn);
  void remove_release_observer(std::size_t token);
  /// Runs the release observers; the tracker calls it per released attempt.
  void note_attempt_released(const TaskAttempt& attempt);

  /// Telemetry hooks (no-ops without a hub).
  void note_task_started(const TaskAttempt& attempt);
  void note_shuffle_started(const TaskAttempt& attempt,
                            sim::MegaBytes total_mb, int sources);
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] storage::Hdfs& hdfs() { return hdfs_; }
  [[nodiscard]] const cluster::Calibration& calibration() const {
    return cal_;
  }
  [[nodiscard]] int reducers_for(const JobSpec& spec) const;

  // --- stats ---
  [[nodiscard]] int speculative_launched() const { return speculative_count_; }
  [[nodiscard]] int requeued() const { return requeue_count_; }
  [[nodiscard]] int jobs_failed() const { return jobs_failed_; }
  [[nodiscard]] int attempt_failures() const { return attempt_failures_; }
  [[nodiscard]] int maps_reexecuted() const { return maps_reexecuted_; }
  [[nodiscard]] const TaskScheduler& scheduler() const { return *scheduler_; }

 private:
  void maybe_start_speculation_monitor();
  void speculation_scan();
  /// Reverts completed maps whose output lived on `site` to pending and
  /// downgrades kReducing jobs back to kMapping (Hadoop 1 re-execution of
  /// lost map outputs). Returns the number of maps reverted.
  int reexecute_lost_map_outputs(const cluster::ExecutionSite& site);
  /// Requeues (without banning) every running attempt that depends_on the
  /// site. Returns the number requeued.
  int requeue_attempts_depending_on(const cluster::ExecutionSite& site);
  /// Audit checkpoint (no-op unless HYBRIDMR_AUDIT): task-state exclusivity
  /// and map/reduce completion-count conservation for one job.
  void audit_verify_job(const Job& job) const;
  /// Audit checkpoint (no-op unless HYBRIDMR_AUDIT): the live list, the
  /// schedulable counters and the fair-order keys match a scan of jobs_.
  void audit_verify_live_work() const;
  /// Audit checkpoint (no-op unless HYBRIDMR_AUDIT): each offer set holds
  /// exactly the unblacklisted trackers of its partition with a free slot
  /// of its type whose host is under the cap — the full tracker scan the
  /// offer walk replaced.
  void audit_verify_offers() const;
  /// Audit checkpoint (no-op unless HYBRIDMR_AUDIT): each host's running
  /// total equals the running attempts of the trackers on it.
  void audit_verify_host_load() const;
  /// Audit checkpoint (no-op unless HYBRIDMR_AUDIT): the tracker a wave is
  /// about to visit sits on a host under the cap, by a full tracker scan.
  void audit_verify_visit(const TaskTracker& tracker) const;
  /// Every job state write goes through here: it keeps the live list, the
  /// fair-order index and the schedulable counters in step with the state.
  void set_state(Job& job, JobState state);
  TaskTracker* tracker_with_free_slot(TaskType type,
                                      const TaskTracker* exclude,
                                      const Task& task) const;
  /// Renumbers tracker indices and rebuilds the offer set + site map after
  /// a structural change (remove_tracker). Cold path.
  void rebuild_dispatch_index();
  /// Per-host concurrency cap: 2 running attempts per core.
  [[nodiscard]] static int host_cap(const cluster::Machine& host);
  /// The load record of the machine `site` runs on (null when detached),
  /// with its cap set and its count left as it was.
  HostLoad* host_load_of(const cluster::ExecutionSite& site);
  /// Re-derives the offer-set membership of every tracker on `host`.
  void update_host_offers(const cluster::Machine& host);
  /// Re-points every tracker at its site's current host, recounts the
  /// host totals and re-derives every offer when the coordinator's
  /// membership epoch has moved since the last count (a VM attached,
  /// detached or migrated). Cold path.
  void sync_host_load();
  /// Forgives `task`'s bans when they cover every unblacklisted tracker its
  /// job's pool admits, keeping `recent` (when non-null) banned for the
  /// requeue grace period.
  void forgive_saturated_bans(Task& task, const TaskTracker* recent);
  /// One dispatch sweep over the offer sets. Returns true when anything
  /// launched.
  bool dispatch_wave(bool locality_only, std::uint64_t& tracker_scans,
                     std::uint64_t& launches);
  /// Pending tasks of `type` that a tracker on a virtual (or native) site
  /// may take: those of eligible jobs (kMapping jobs offer maps, kReducing
  /// jobs offer reduces) whose pool admits the site. O(1) from counters
  /// kept by add_schedulable() and set_state(). pick() tests the same
  /// eligibility, pool and pending flags, so a zero here proves every pick
  /// of this type on such a tracker would return null.
  [[nodiscard]] int schedulable_pending(TaskType type, bool virtual_site) const;

  sim::Simulation& sim_;
  storage::Hdfs& hdfs_;
  const cluster::Calibration& cal_;
  std::unique_ptr<TaskScheduler> scheduler_;
  Options options_;
  std::vector<std::unique_ptr<TaskTracker>> trackers_;
  // Dispatch index: ordered sets of tracker indices with at least one free
  // slot of the given type (and not blacklisted), one per (type, partition:
  // native or virtual site), maintained incrementally by update_offer();
  // dispatch waves merge-walk these in index order instead of re-scanning
  // every tracker, and consult a set only while schedulable_pending() for
  // its type and partition is nonzero — during a saturated map phase that
  // leaves a handful of slot offers per wave instead of the whole cluster,
  // and pool-restricted work never walks the other partition's offers.
  // A tracker whose host is at the cap (host_cap()) is left out of every
  // set until the host's total drops below it, so a wave visits only
  // trackers that can launch.
  // The site and host maps serve O(1) tracker_on() and the host gate; they
  // are only ever *looked up*, never iterated, so unordered is
  // determinism-safe.
  std::array<std::array<std::set<std::uint32_t>, 2>, 2> offers_;
  std::unordered_map<const cluster::ExecutionSite*, TaskTracker*>
      tracker_by_site_;
  // One load record per physical host a tracker has run on; each tracker
  // caches a pointer to its host's (records are never erased, so the
  // pointers stay valid). Kept by add_host_running() and recounted by
  // sync_host_load() when `membership_` reports a topology change.
  std::unordered_map<const cluster::Machine*, HostLoad> host_load_;
  // The cluster's coordinator (owned by HybridCluster), taken from the
  // first tracker on an attached site; null while no tracker has a host.
  const cluster::ReallocCoordinator* membership_ = nullptr;
  std::uint64_t host_epoch_ = 0;
  std::vector<std::unique_ptr<Job>> jobs_;
  // Index over the live jobs (submit and fair order), maintained by
  // set_state() and add_running(); what the scheduler picks from.
  LiveJobs live_;
  // Pending tasks of eligible jobs per (task type, PlacementPool); see
  // schedulable_pending().
  std::array<std::array<int, 3>, 2> schedulable_{};
  sim::PeriodicHandle speculation_ticker_;
  int speculative_count_ = 0;
  int requeue_count_ = 0;
  int jobs_failed_ = 0;
  int attempt_failures_ = 0;
  int maps_reexecuted_ = 0;
  bool dispatching_ = false;
  // Attempt-release observer slots (see add_release_observer); the
  // closures hold back-references to their controllers (IPS), which
  // deregister on destruction.
  std::vector<std::function<void(const TaskAttempt&)>> release_observers_;
  // Telemetry hub (null when detached).
  telemetry::Hub* tel_ = nullptr;
  // Cached profiler handle (null unless a profiled run).
  telemetry::Profiler* prof_ = nullptr;
  telemetry::ScopeId prof_dispatch_scope_;
  telemetry::ScopeId prof_speculation_scope_;
};

}  // namespace hybridmr::mapred
