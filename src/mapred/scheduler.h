// Pluggable task schedulers (the JobTracker's scheduling policy).
//
// FIFO is Hadoop's default; FairScheduler matches the paper's testbed
// configuration (§IV). Both prefer data-local map tasks, mirroring the
// delay-free locality preference of Hadoop 1.x.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mapred/bitmap.h"
#include "mapred/job.h"
#include "mapred/tracker.h"
#include "storage/hdfs.h"

namespace hybridmr::mapred {

/// The JobTracker's index over its live jobs (kMapping or kReducing): all a
/// scheduler reads. MapReduceEngine maintains both orders incrementally, so
/// a pick costs O(live jobs it inspects), never O(jobs ever submitted).
class LiveJobs {
 public:
  /// Live jobs in submit order. A job that finished during the current
  /// dispatch stays listed until the next one begins; eligible() rejects it.
  [[nodiscard]] const std::vector<Job*>& in_submit_order() const {
    return submit_order_;
  }
  /// Calls `fn(job)` on the live jobs in fair order — fewest running
  /// attempts first, ties in submit order: exactly a stable sort by
  /// Job::running_tasks() over the submit order — until it returns a
  /// non-null pointer, and returns that (null when none did).
  template <typename Fn>
  auto find_in_fair_order(Fn&& fn) const {
    return fair_order_.find_first(
        [&](std::uint32_t id) { return fn(*(*jobs_)[id]); });
  }
  /// How many jobs are live.
  [[nodiscard]] std::size_t size() const { return fair_order_.size(); }

 private:
  friend class MapReduceEngine;
  // MapReduceEngine::jobs_, indexed by job id.
  const std::vector<std::unique_ptr<Job>>* jobs_ = nullptr;
  // Jobs owned by MapReduceEngine::jobs_.
  std::vector<Job*> submit_order_;
  // Live job ids keyed by Job::running_tasks().
  FairOrder fair_order_;
  /// submit_order_ still lists a job that has finished.
  bool stale_ = false;
};

class TaskScheduler {
 public:
  virtual ~TaskScheduler() = default;

  /// Chooses the next task to run on a free slot of `type` at `tracker`,
  /// or nullptr when nothing is eligible. With `locality_only`, map slots
  /// only accept node/host-local tasks (delay-scheduling pass); the
  /// dispatcher relaxes the constraint in a second round.
  virtual Task* pick(TaskTracker& tracker, TaskType type, const LiveJobs& live,
                     const storage::Hdfs& hdfs, bool locality_only) = 0;

  /// True if `job` has work of `type` ready to schedule. Public so the
  /// dispatcher's schedulable-pending counters apply the exact same
  /// eligibility rule as pick().
  static bool eligible(const Job& job, TaskType type);

 protected:
  /// True if `job` can hand `tracker` a task of `type` right now: eligible,
  /// its pool admits the tracker's site, and a task of the type is pending.
  /// A false here means pick_from_job() would return nullptr.
  static bool offers(const Job& job, TaskType type, const TaskTracker& tracker);
  /// Picks a pending task of `type` from `job` that `tracker` is not
  /// banned from. Local maps are looked up in Hdfs::blocks_on(), not found
  /// by scanning the job's maps: the first in the tracker's own site's
  /// list (node-local), else the lowest-index one listed on another site
  /// of its physical machine (host-local), else, unless `locality_only`,
  /// the first in index order. A reduce is the first in index order. The
  /// job's pending set answers "pending" for every candidate; a Task is
  /// loaded only to test a pending one's bans.
  static Task* pick_from_job(Job& job, TaskType type, TaskTracker& tracker,
                             const storage::Hdfs& hdfs, bool locality_only);
};

/// Jobs served strictly in submission order.
class FifoScheduler : public TaskScheduler {
 public:
  Task* pick(TaskTracker& tracker, TaskType type, const LiveJobs& live,
             const storage::Hdfs& hdfs, bool locality_only) override;
};

/// Hadoop FairScheduler: the eligible job with the fewest running tasks
/// gets the slot (equal-share, single pool, no preemption).
class FairScheduler : public TaskScheduler {
 public:
  Task* pick(TaskTracker& tracker, TaskType type, const LiveJobs& live,
             const storage::Hdfs& hdfs, bool locality_only) override;
};

std::unique_ptr<TaskScheduler> make_scheduler(const std::string& name);

}  // namespace hybridmr::mapred
