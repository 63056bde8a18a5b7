#include "mapred/scheduler.h"

#include <cstdint>

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
  const Bitmap& pending = job.pending_set(type);
  const auto unbanned = [&tracker, &tasks](std::uint32_t i) {
    return !tasks[i]->banned_trackers.contains(&tracker);
  };
  if (type == TaskType::kMap) {
    // Map i reads block i, so the locality index lists candidate maps.
    const cluster::ExecutionSite& own = tracker.site();
    for (const std::uint32_t b : hdfs.blocks_on(job.input_file(), own)) {
      if (pending.contains(b) && unbanned(b)) {
        return tasks[b].get();  // node-local
      }
    }
    // Host-local: a replica on another site of the same physical machine,
    // i.e. the machine itself or one of the VMs it hosts now. The lowest
    // index wins, so each list is read only up to the best found so far.
    if (const cluster::Machine* host = own.host_machine()) {
      std::uint32_t best = static_cast<std::uint32_t>(tasks.size());
      const auto scan = [&](const cluster::ExecutionSite& site) {
        if (&site == &own) return;
        for (const std::uint32_t b : hdfs.blocks_on(job.input_file(), site)) {
          if (b >= best) return;
          if (pending.contains(b) && unbanned(b)) {
            best = b;
            return;
          }
        }
      };
      scan(*host);
      for (const cluster::VirtualMachine* vm : host->vms()) scan(*vm);
      if (best < tasks.size()) return tasks[best].get();
    }
    if (locality_only) return nullptr;
  }
  for (std::uint32_t i = pending.next(0); i != Bitmap::kNone;
       i = pending.next(i + 1)) {
    if (unbanned(i)) return tasks[i].get();
  }
  return nullptr;
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
  return live.find_in_fair_order([&](Job& job) -> Task* {
    if (!offers(job, type, tracker)) return nullptr;
    return pick_from_job(job, type, tracker, hdfs, locality_only);
  });
}

std::unique_ptr<TaskScheduler> make_scheduler(const std::string& name) {
  if (name == "fair") return std::make_unique<FairScheduler>();
  return std::make_unique<FifoScheduler>();
}

}  // namespace hybridmr::mapred
