#include "cluster/workload.h"

#include <algorithm>

#include "cluster/machine.h"

namespace hybridmr::cluster {

Workload::Workload(Resources demand, sim::Duration work)
    : demand_(demand),
      total_work_(work.value()),
      remaining_(work < sim::Duration{0} ? kService.value() : work.value()) {
  refresh_eff_demand();
}

void Workload::refresh_eff_demand() {
  eff_demand_ = (paused_ || done_) ? Resources{} : demand_.min(caps_);
}

void Workload::set_demand(const Resources& demand) {
  demand_ = demand;
  refresh_eff_demand();
  if (site_ != nullptr) site_->rekey(*this, true);
}

void Workload::set_caps(const Resources& caps) {
  caps_ = caps;
  refresh_eff_demand();
  if (site_ != nullptr) site_->rekey(*this, true);
}

void Workload::set_paused(bool paused) {
  if (paused_ == paused) return;
  paused_ = paused;
  refresh_eff_demand();
  if (site_ != nullptr) site_->rekey(*this, true);
}

namespace {

// Reallocation is deferred (see realloc.h): reads of allocation-derived
// state drain the host machine's pending recompute first so no caller —
// DRM profiling, migration dirty-rate, interactive refresh — can observe
// shares from before a same-instant mutation.
void drain_host(const ExecutionSite* site) {
  if (site == nullptr) return;
  if (const Machine* machine = site->host_machine(); machine != nullptr) {
    machine->ensure_clean();
  }
}

}  // namespace

double Workload::speed() const {
  drain_host(site_);
  const DemandClasses::Row* row =
      site_ != nullptr ? site_->held_row(*this) : nullptr;
  return row != nullptr ? row->speed : speed_;
}

sim::Duration Workload::remaining() const {
  drain_host(site_);
  return sim::Duration{remaining_};
}

double Workload::progress() const {
  if (!finite() || total_work_ <= 0) return 0;
  drain_host(site_);
  return std::clamp(1.0 - remaining_ / total_work_, 0.0, 1.0);
}

Resources Workload::allocated() const {
  drain_host(site_);
  const DemandClasses::Row* row =
      site_ != nullptr ? site_->held_row(*this) : nullptr;
  return row != nullptr ? row->grant : allocated_;
}

void Workload::finish(sim::SimTime now) {
  // Settle at the *current* rates: drain any deferred recompute first so
  // the interval accrues exactly as it would have under eager reallocation.
  drain_host(site_);
  // Unattached, it holds no rate (its own copy is zeros): nothing accrues.
  if (site_ != nullptr) site_->settle(*this, now);
  remaining_ = 0;
  done_ = true;
  speed_ = 0;
  allocated_ = {};
  refresh_eff_demand();
  // The removal that follows reallocates; the site still learns the new
  // demand now, so a read barrier in between cannot observe the old one.
  if (site_ != nullptr) site_->rekey(*this, false);
}

}  // namespace hybridmr::cluster
