#include "mapred/scheduler.h"

namespace hybridmr::mapred {

bool TaskScheduler::eligible(const Job& job, TaskType type) {
  if (type == TaskType::kMap) return job.state() == JobState::kMapping;
  return job.state() == JobState::kReducing;
}

bool TaskScheduler::offers(const Job& job, TaskType type,
                           const TaskTracker& tracker) {
  if (!eligible(job, type)) return false;
  if (!job.pool_allows(tracker.site().is_virtual())) return false;
  return job.pending(type) > 0;
}

Task* TaskScheduler::pick_from_job(Job& job, TaskType type,
                                   TaskTracker& tracker,
                                   const storage::Hdfs& hdfs,
                                   bool locality_only) {
  const auto& tasks = type == TaskType::kMap ? job.maps() : job.reduces();
  Task* host_local = nullptr;
  Task* fallback = nullptr;
  for (const auto& t : tasks) {
    if (!t->pending()) continue;
    if (t->banned_trackers.contains(&tracker)) continue;
    if (type == TaskType::kMap) {
      const auto loc =
          hdfs.locality_of(job.input_file(), t->index(), &tracker.site());
      if (loc == storage::Locality::kNodeLocal) return t.get();
      if (loc == storage::Locality::kHostLocal && host_local == nullptr) {
        host_local = t.get();
      }
    }
    if (fallback == nullptr) fallback = t.get();
    if (type == TaskType::kReduce) break;  // reduces have no locality
  }
  if (host_local != nullptr) return host_local;
  if (locality_only && type == TaskType::kMap) return nullptr;
  return fallback;
}

Task* FifoScheduler::pick(TaskTracker& tracker, TaskType type,
                          const LiveJobs& live, const storage::Hdfs& hdfs,
                          bool locality_only) {
  for (Job* job : live.in_submit_order()) {
    if (!offers(*job, type, tracker)) continue;
    if (Task* t = pick_from_job(*job, type, tracker, hdfs, locality_only)) {
      return t;
    }
  }
  return nullptr;
}

Task* FairScheduler::pick(TaskTracker& tracker, TaskType type,
                          const LiveJobs& live, const storage::Hdfs& hdfs,
                          bool locality_only) {
  // Most-starved first: the engine keeps live jobs ordered by (running
  // attempts, id), so the walk stops at the first job that yields a task.
  for (const LiveJobs::FairKey& key : live.in_fair_order()) {
    if (!offers(*key.job, type, tracker)) continue;
    if (Task* t = pick_from_job(*key.job, type, tracker, hdfs, locality_only)) {
      return t;
    }
  }
  return nullptr;
}

std::unique_ptr<TaskScheduler> make_scheduler(const std::string& name) {
  if (name == "fair") return std::make_unique<FairScheduler>();
  return std::make_unique<FifoScheduler>();
}

}  // namespace hybridmr::mapred
