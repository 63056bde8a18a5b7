#include "cluster/realloc.h"

#include <algorithm>

#include "cluster/machine.h"

namespace hybridmr::cluster {

ReallocCoordinator::ReallocCoordinator(sim::Simulation& sim) : sim_(sim) {
  hook_token_ = sim_.add_flush_hook([this] { drain(); });
}

ReallocCoordinator::~ReallocCoordinator() {
  sim_.remove_flush_hook(hook_token_);
}

void ReallocCoordinator::set_eager(bool eager) {
  if (eager) drain();
  eager_ = eager;
}

void ReallocCoordinator::set_profiler(telemetry::Profiler* prof) {
  prof_ = prof;
  if (prof_ != nullptr) {
    prof_drain_scope_ = prof_->intern("cluster.realloc.drain");
  }
}

void ReallocCoordinator::drain() {
  if (!dirty_.empty()) {
    telemetry::Scope prof_scope(prof_, prof_drain_scope_);
    // recompute() can mark *other* machines dirty (it never re-marks its
    // own: the dirty flag clears on entry), so process as a queue. A read
    // barrier may have cleaned a machine since it was marked (and a machine
    // marked again after that sits here twice): only a dirty one has
    // anything to recompute.
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      if (dirty_[i]->dirty()) dirty_[i]->recompute(RecomputeCause::kDrain);
    }
    if (prof_ != nullptr) {
      prof_->add(telemetry::WorkCounter::kDrainPasses);
      // The queue length at completion counts cascaded re-marks too: this
      // is the real per-flush recompute bill.
      prof_->record_dist(telemetry::WorkDist::kDirtySetSize, dirty_.size());
    }
    dirty_.clear();
  }
}

void ReallocCoordinator::forget(Machine* machine) {
  std::erase(dirty_, machine);
}

}  // namespace hybridmr::cluster
