// Deferred, coalesced machine reallocation.
//
// Every membership/demand mutation used to call Machine::recompute()
// eagerly, so a k-task placement burst at one simulated instant recomputed
// the same machine k times. The coordinator batches instead: mutations mark
// their host machine dirty here (Machine::invalidate()), and the set drains
// — one recompute() per distinct machine, in first-marked order — through a
// simulation flush hook that fires before the next event dispatches, i.e.
// before the virtual clock can move past the mutation timestamp. Reads of
// allocation-dependent state (Machine::utilization(), Workload::allocated(),
// ...) drain their own machine on demand via Machine::ensure_clean(), so no
// caller can observe stale shares.
//
// Eager mode (set_eager(true)) restores the recompute-on-every-mutation
// behavior. It is the simulator's one reference switch: the determinism-
// equivalence test runs both modes against the same seed and requires
// byte-identical reports, which only holds if every read of allocation
// state drains through Machine::ensure_clean().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulation.h"
#include "telemetry/profiler.h"

namespace hybridmr::cluster {

class Machine;

class ReallocCoordinator {
 public:
  explicit ReallocCoordinator(sim::Simulation& sim);
  ~ReallocCoordinator();

  ReallocCoordinator(const ReallocCoordinator&) = delete;
  ReallocCoordinator& operator=(const ReallocCoordinator&) = delete;

  /// Eager mode recomputes on every mutation (the pre-coalescing
  /// behavior). Switching drains any deferred work first.
  void set_eager(bool eager);
  [[nodiscard]] bool eager() const { return eager_; }

  /// Marks `machine` dirty. Called by Machine::invalidate() only; the
  /// machine enqueues itself once per clean-to-dirty transition, so one a
  /// read barrier cleaned and a mutation marked again sits here twice.
  void mark_dirty(Machine* machine) { dirty_.push_back(machine); }

  /// Recomputes every machine in the list that is still dirty (in
  /// first-marked order). Runs automatically at event boundaries via the
  /// flush hook.
  void drain();

  /// Drops a machine from the dirty list (machine teardown).
  void forget(Machine* machine);

  /// Attaches the profiler (null detaches): drains record their pass
  /// count, dirty-set size distribution and wall-time scope.
  void set_profiler(telemetry::Profiler* prof);

  /// Moves whenever a VM attaches to or detaches from a machine
  /// (Machine::attach_vm/detach_vm: placement, migration, crash teardown,
  /// reboot). Readers that cache per-host aggregates of VM-resident state,
  /// like the JobTracker's host-load gate, rebuild them when it moves.
  [[nodiscard]] std::uint64_t membership_epoch() const {
    return membership_epoch_;
  }
  void bump_membership_epoch() { ++membership_epoch_; }

 private:
  sim::Simulation& sim_;
  std::size_t hook_token_;
  std::vector<Machine*> dirty_;
  bool eager_ = false;
  std::uint64_t membership_epoch_ = 0;
  telemetry::Profiler* prof_ = nullptr;
  telemetry::ScopeId prof_drain_scope_;
};

}  // namespace hybridmr::cluster
