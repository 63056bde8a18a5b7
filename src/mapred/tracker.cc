#include "mapred/tracker.h"

#include <algorithm>
#include <cassert>

#include "audit/invariants.h"
#include "mapred/engine.h"
#include "mapred/job.h"

namespace hybridmr::mapred {

cluster::Resources TaskTracker::static_slot_share(TaskType /*type*/) const {
  // Stock Hadoop-1 rigidity: a fixed per-JVM heap (mapred.child.java.opts:
  // node memory / per-type slot count) and conservative fixed per-stream
  // I/O throttles. CPU is left work-conserving (Linux CFS). HybridMR's DRM
  // replaces these with demand-driven allocations.
  const auto& cal = engine_->calibration();
  cluster::Resources caps = cluster::Resources::unbounded();
  // Two concurrently active slots saturate a native node's disk exactly;
  // the rigidity shows up whenever fewer streams than slots are active.
  caps.disk = cal.pm_disk_mbps.value() / 2;
  caps.net = cal.pm_net_mbps.value() / 2;
  // Every task JVM runs with the stock fixed heap (mapred.child.java.opts)
  // no matter how much memory the node actually has — the rigidity
  // MROrchestrator reclaims.
  caps.memory = cal.hadoop_child_heap_mb.value();
  return caps;
}

void TaskTracker::audit_verify_slots() const {
#if defined(HYBRIDMR_AUDIT_ENABLED)
  const double now = engine_->sim().now();
  const auto details = [&]() {
    return std::vector<audit::Detail>{
        {"site", site_->name()},
        {"running_maps", audit::num(running_maps_)},
        {"map_slots", audit::num(map_slots_)},
        {"running_reduces", audit::num(running_reduces_)},
        {"reduce_slots", audit::num(reduce_slots_)},
        {"running_list", audit::num(static_cast<double>(running_.size()))}};
  };
  HYBRIDMR_AUDIT_CHECK(
      running_maps_ >= 0 && running_maps_ <= map_slots_ &&
          running_reduces_ >= 0 && running_reduces_ <= reduce_slots_,
      "mapred.tracker", "slot_conservation", now, details());
  HYBRIDMR_AUDIT_CHECK(
      static_cast<int>(running_.size()) == running_maps_ + running_reduces_,
      "mapred.tracker", "slot_conservation", now, details());
  // Every listed attempt is genuinely running here, and appears once.
  for (std::size_t i = 0; i < running_.size(); ++i) {
    HYBRIDMR_AUDIT_CHECK(running_[i]->running() &&
                             &running_[i]->tracker() == this,
                         "mapred.tracker", "slot_conservation", now,
                         details());
    HYBRIDMR_AUDIT_CHECK(std::find(running_.begin() + i + 1, running_.end(),
                                   running_[i]) == running_.end(),
                         "mapred.tracker", "slot_conservation", now,
                         details());
  }
#endif
}

TaskAttempt* TaskTracker::launch(Task& task) {
  assert(free_slots(task.type()) > 0 && "no free slot");
  auto attempt = std::make_unique<TaskAttempt>(task, *this, *engine_);
  TaskAttempt* raw = attempt.get();
  task.attempts_.push_back(std::move(attempt));
  if (task.type() == TaskType::kMap) {
    ++running_maps_;
  } else {
    ++running_reduces_;
  }
  // Before start(): an attempt that finishes synchronously releases (and
  // decrements) from inside start(), so the increment must already be in.
  engine_->add_running(task.job(), 1);
  running_.push_back(raw);
  // Offer-set update before start() for the same reason: a synchronous
  // finish re-derives membership from the post-release counts.
  engine_->update_offer(*this);
  raw->set_base_caps(static_slot_share(task.type()));
  raw->start();
  engine_->note_task_started(*raw);
  audit_verify_slots();
  return raw;
}

void TaskTracker::release(TaskAttempt* attempt) {
  auto it = std::find(running_.begin(), running_.end(), attempt);
  if (it == running_.end()) return;  // already released
  running_.erase(it);
  engine_->note_attempt_released(*attempt);
  if (attempt->task().type() == TaskType::kMap) {
    --running_maps_;
  } else {
    --running_reduces_;
  }
  engine_->add_running(attempt->task().job(), -1);
  engine_->update_offer(*this);
  audit_verify_slots();
}

}  // namespace hybridmr::mapred
