// Workload: the unit of resource consumption on a machine or VM.
//
// A workload declares a multi-resource demand vector (the rates it wants at
// full speed) and an amount of work measured in seconds-at-full-speed. The
// hosting site grants it an allocation; its *speed* is the most-constrained
// ratio granted/demanded, further scaled by memory pressure and (inside a VM)
// the virtualization taxes. Service workloads (interactive applications) have
// no finite work and simply consume resources until removed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cluster/resources.h"
#include "sim/event_queue.h"
#include "sim/units.h"

namespace hybridmr::cluster {

class ExecutionSite;

class Workload {
 public:
  /// Sentinel for service (non-terminating) workloads.
  static constexpr sim::Duration kService{-1.0};

  /// `work`: execution time at full speed, or kService.
  Workload(Resources demand, sim::Duration work);

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // --- demand & throttles ---
  [[nodiscard]] const Resources& demand() const { return demand_; }
  /// Changes the demand vector; triggers a reallocation if attached.
  void set_demand(const Resources& demand);
  /// cgroup-style caps imposed by the DRM; effective demand is min(demand,
  /// caps). Triggers a reallocation if attached.
  void set_caps(const Resources& caps);
  /// Demand after caps and pause are applied. Cached: recomputed only when
  /// demand/caps/pause/done change, because the reallocation engine reads
  /// this several times per member per recompute (gather, VM distribute per
  /// resource, I/O-activity census).
  [[nodiscard]] const Resources& effective_demand() const {
    return eff_demand_;
  }

  // --- pause (IPS action) ---
  [[nodiscard]] bool paused() const { return paused_; }
  void set_paused(bool paused);

  // --- progress ---
  [[nodiscard]] bool finite() const { return total_work_ >= 0; }
  /// Work-at-full-speed left. Drains any pending reallocation of the
  /// host machine first (settling accrued progress), like speed().
  [[nodiscard]] sim::Duration remaining() const;
  [[nodiscard]] bool done() const { return done_; }
  /// Fraction complete in [0,1]; service workloads report 0. Drains any
  /// pending reallocation first (see remaining()).
  [[nodiscard]] double progress() const;
  /// Current speed / allocation: the member's class row's while it is
  /// attached and installed (ExecutionSite::held_row). Reallocation is
  /// deferred and coalesced, so these first drain any pending recompute of
  /// the host machine — callers never observe stale shares (defined out of
  /// line for that). The grant is a copy: the row table can grow.
  // sim-lint: allow(unused-api) property_test, realloc_test: member speeds
  [[nodiscard]] double speed() const;
  [[nodiscard]] Resources allocated() const;

  /// Invoked (by the hosting machine) when the work completes; the workload
  /// has already been detached from its site.
  std::function<void()> on_complete;

  // --- site attachment (managed by ExecutionSite) ---
  [[nodiscard]] ExecutionSite* site() const { return site_; }

  // === Internal interface used by the allocation engine ===

  /// Marks the workload complete (settles first).
  void finish(sim::SimTime now);

  /// Completion event handle, owned by the scheduling machine. For a
  /// finite workload it is created (parked at infinity) the moment the
  /// workload attaches to a site — reserving the event's FIFO tie-break
  /// seat at mutation time, independent of when the reallocation engine
  /// gets around to computing the real finish time — and lives until the
  /// workload fires or is removed. Reallocations move it in place
  /// (EventQueue::defer); a stalled workload parks back at infinity.
  sim::EventId completion_event;
  /// Absolute finish time of the scheduled completion event (valid while
  /// completion_event is; infinity while parked). Machine::reschedule()
  /// skips all queue work when a reallocation leaves this unchanged.
  sim::SimTime completion_time = 0;

 private:
  friend class ExecutionSite;

  void refresh_eff_demand();

  /// Accrues progress for the interval since the last settle at the
  /// `speed` and `grant` the member held over it. Returns MB of I/O
  /// performed in the interval (for the VM buffer-cache model). Inline:
  /// the reallocation engine calls this once per resident workload per
  /// recompute (through ExecutionSite, which knows the held rate).
  double settle(sim::SimTime now, double speed, const Resources& grant) {
    const double dt = now - last_settle_;
    last_settle_ = now;
    if (dt <= 0 || done_) return 0;
    if (finite()) {
      remaining_ = remaining_ - dt * speed > 0 ? remaining_ - dt * speed : 0;
    }
    return (grant.disk + grant.net) * dt;
  }

  Resources demand_;
  Resources caps_ = Resources::unbounded();
  Resources eff_demand_{};
  double total_work_;
  double remaining_;
  bool done_ = false;
  bool paused_ = false;
  // The member's own copy of its grant and speed, held instead of its
  // class row's (ExecutionSite::held_row): zeros before its first install
  // and once it is done or detached; its old row's from a re-key that
  // moved it until its site's next install, which `copied_at_` names.
  double speed_ = 0;
  Resources allocated_{};
  std::uint64_t copied_at_ = 0;    // the site's install count at the copy
  sim::SimTime last_settle_ = 0;
  ExecutionSite* site_ = nullptr;  // owned by HybridCluster
  std::uint32_t site_row_ = 0;     // this member's row at its site
};

using WorkloadPtr = std::shared_ptr<Workload>;

}  // namespace hybridmr::cluster
