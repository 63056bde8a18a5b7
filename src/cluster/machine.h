// Physical machines and Xen-style virtual machines.
//
// Allocation model (DESIGN.md §3): a physical machine water-fills each
// resource max-min fairly across its consumers (native workloads and VMs);
// each VM then water-fills its grant across its own workloads and applies
// the virtualization taxes.
//
// Reallocation is *deferred and coalesced* (see realloc.h): a membership,
// demand or cap change marks the host machine dirty via invalidate(), and
// the machine recomputes once per event boundary (or earlier, on the first
// read of allocation-dependent state through ensure_clean()). recompute()
// itself is allocation-free in steady state: each site keeps its members'
// demand classes as standing state (a member joins, leaves or is re-keyed
// when it attaches, detaches or changes its key), fills and rates each
// class once (its members read their grant and speed from the class row),
// and only moves a completion event when the workload's finish time
// actually changed.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/calibration.h"
#include "cluster/power.h"
#include "cluster/resources.h"
#include "cluster/workload.h"
#include "sim/simulation.h"
#include "stats/timeseries.h"
#include "telemetry/profiler.h"

namespace hybridmr::telemetry {
struct Hub;
class Profiler;
}  // namespace hybridmr::telemetry

namespace hybridmr::cluster {

class Machine;
class ReallocCoordinator;

/// Why a recompute ran — the profiler attributes every Machine::recompute()
/// invocation to its trigger so superlinear blowup is visible per cause
/// (a drain storm reads very differently from read-barrier churn).
enum class RecomputeCause {
  kDirect,       // direct call (micro benchmarks)
  kDrain,        // coalescing drain at an event boundary
  kReadBarrier,  // ensure_clean() on a read of allocation-dependent state
  kEager,        // eager mode recompute-on-every-mutation
};

/// Max-min fair ("water-filling") split of `capacity` across one consumer
/// per demand: one resource of DemandClasses::fill, for tests and cold
/// paths. Total allocated never exceeds capacity; no consumer gets more
/// than its demand; unsatisfied consumers get one equal level. Non-positive
/// and NaN demands get 0 and do not count. The grants depend only on the
/// multiset of demands: equal demands get bitwise-equal grants, and
/// permuting the demands permutes the grants.
// sim-lint: allow(unused-api) cluster_test, property_test: the fill's laws
std::vector<double> waterfill(double capacity, std::span<const double> demands);

/// A site's demand classes, kept as standing state. A class is the members
/// whose raw demand, effective demand and pause flag agree byte for byte,
/// which is everything the grant and the speed read of a member; a class's
/// members therefore get one grant and one speed, held in the class row,
/// and the site fills and rates each class once. Members join a class when
/// they attach, leave it when they detach, and move when their key changes
/// (ExecutionSite::rekey). A class that empties frees its row (asks for
/// nothing, is not rated); the next new class takes it.
class DemandClasses {
 public:
  /// One row of the fill: a class of members, or a consumer that stands
  /// for itself alone (a machine's VM; only `effective` and `grant` used).
  struct Row {
    Resources demand;     // raw demand (the speed reads it)
    Resources effective;  // after caps and pause (the fill reads it)
    bool paused = false;
    Resources grant{};
    double speed = 0;
  };
  /// One distinct positive demand of a resource and how many consumers
  /// ask for it.
  struct Group {
    double value = 0;
    std::uint32_t count = 0;
  };

  /// Adds one member with `w`'s key to its class (a free or new row when
  /// no live row has the key) and returns the row.
  std::uint32_t join(const Workload& w);
  /// Removes one member from `row`; a row left empty is freed.
  void leave(std::uint32_t row);
  /// Water-fills each resource of `capacity` max-min fairly across the
  /// rows, each row counting for its members, and the `singles`, into
  /// their grants: every demand up to a resource's cut is granted in full,
  /// every larger one gets one equal level. All four resources are
  /// levelled in one pass, each from its own ascending (value, count)
  /// table, so a resource's grants depend only on its multiset of demands:
  /// equal demands get bitwise-equal grants, whether they sit in one row
  /// or several. Non-positive and NaN demands get 0 and do not count.
  /// Counts the consumers and live rows filled when `prof` is non-null.
  void fill(const Resources& capacity, std::span<Row> singles,
            telemetry::Profiler* prof);

  std::vector<Row> rows;
  std::vector<std::uint32_t> counts;  // members per row; 0 = free row
  /// A member joined or left since the last fill().
  bool changed = true;

 private:
  // A resource past the stack table's distinct values sorts its demands
  // here (reused: steady-state fills allocate nothing).
  std::vector<Group> sorted_;
};

/// Piecewise-linear memory-pressure speed factor for an alloc/demand ratio.
double memory_pressure_factor(double ratio, const Calibration& cal);

/// Where a workload can run: a physical machine (native) or a VM.
class ExecutionSite {
 public:
  virtual ~ExecutionSite() = default;

  /// Attaches a workload; takes shared ownership until completion/removal.
  void add(WorkloadPtr workload);

  /// Detaches a workload (does not fire on_complete).
  void remove(Workload* workload);

  /// Marks the physical machine underneath for reallocation (deferred and
  /// coalesced; recomputes immediately in eager mode). Virtual so a VM can
  /// invalidate its member-sum cache on the same mutations that dirty the
  /// host.
  virtual void reallocate();

  /// The one funnel for a member whose demand, caps, pause or done flag
  /// changed: moves it to the demand class of its new key and, when
  /// `reallocate` is set, marks the machine for reallocation.
  /// Workload::finish passes false (the removal that follows reallocates);
  /// the re-key still keeps a read-barrier recompute in between exact.
  virtual void rekey(Workload& member, bool reallocate);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] virtual sim::Simulation& simulation() = 0;
  [[nodiscard]] virtual bool is_virtual() const = 0;
  /// The physical machine executing this site.
  [[nodiscard]] virtual Machine* host_machine() = 0;
  [[nodiscard]] const Machine* host_machine() const {
    return const_cast<ExecutionSite*>(this)->host_machine();
  }
  /// Nominal capacity of this site (used by placement heuristics).
  [[nodiscard]] virtual Resources nominal() const = 0;
  /// The run's calibration (the cluster's).
  [[nodiscard]] const Calibration& calibration() const { return cal_; }
  /// This site's number in its cluster, dense and in creation order
  /// (machines and VMs share one count, and no site leaves the cluster):
  /// the index of flat per-site tables such as Hdfs's locality index.
  [[nodiscard]] std::uint32_t ordinal() const { return ordinal_; }

  [[nodiscard]] const std::vector<WorkloadPtr>& workloads() const {
    return workloads_;
  }
  /// Sum of effective demands of resident workloads.
  [[nodiscard]] Resources total_demand() const;

 protected:
  friend class Workload;
  friend class HybridCluster;  // assigns ordinal_

  ExecutionSite(std::string name, const Calibration& cal)
      : cal_(cal), name_(std::move(name)) {}

  /// The class row of a resident member.
  [[nodiscard]] const DemandClasses::Row& class_of(const Workload& w) const {
    return classes_.rows[w.site_row_];
  }
  /// The class row whose grant and speed a resident member holds, or null
  /// while it holds its own copy (Workload::allocated_): before its first
  /// install, from a re-key until this site's next install, and once it
  /// is done.
  [[nodiscard]] const DemandClasses::Row* held_row(const Workload& w) const {
    return w.done_ || w.copied_at_ == installs_ ? nullptr
                                                : &classes_.rows[w.site_row_];
  }
  /// Settles every member at the rate it held since its last settle and
  /// returns the MB of I/O they performed. Once per instant: members that
  /// joined since the last pass carry `now` as their last settle, so a
  /// second pass at the same instant would find every interval empty.
  double settle_members(sim::SimTime now);
  /// Audit: every member's row holds its current key, every row counts the
  /// members that point at it, and a free row asks for nothing.
  [[nodiscard]] bool classes_match_members() const;

  const Calibration& cal_;
  std::vector<WorkloadPtr> workloads_;
  DemandClasses classes_;
  /// Installs of the class rows' grants and speeds since construction; a
  /// member's own copy stamped with the current count stands until the
  /// next install moves it on.
  std::uint64_t installs_ = 0;

 private:
  // Settles one member at the rate it held.
  double settle(Workload& w, sim::SimTime now) const {
    const DemandClasses::Row* row = held_row(w);
    return row != nullptr ? w.settle(now, row->speed, row->grant)
                          : w.settle(now, w.speed_, w.allocated_);
  }

  std::string name_;
  std::uint32_t ordinal_ = 0;
  // The instant of the last settle_members() pass (none yet: -inf).
  sim::SimTime settled_at_ = -std::numeric_limits<double>::infinity();
};

/// Xen-style virtual machine. Owned by HybridCluster; hosted by a Machine.
class VirtualMachine : public ExecutionSite {
 public:
  VirtualMachine(sim::Simulation& sim, std::string name, sim::CoreShare vcpus,
                 sim::MegaBytes memory_mb, const Calibration& cal);

  [[nodiscard]] sim::Simulation& simulation() override { return sim_; }
  [[nodiscard]] bool is_virtual() const override { return true; }
  [[nodiscard]] Machine* host_machine() override { return host_; }
  [[nodiscard]] Resources nominal() const override;

  [[nodiscard]] sim::CoreShare vcpus() const {
    return sim::CoreShare{vcpus_};
  }
  [[nodiscard]] sim::MegaBytes memory_mb() const { return memory_mb_; }

  /// Dom-0 placement: near-native taxes (paper Fig. 2(c)).
  void set_dom0(bool dom0) { dom0_ = dom0; }

  /// VM-level throttles (cpu cores / disk / net) set by the DRM.
  void set_caps(const Resources& caps);

  /// Pauses/resumes the whole VM (IPS action, or migration downtime).
  void set_paused(bool paused);
  // sim-lint: allow(unused-api) cluster_test, faults_test, property_test
  [[nodiscard]] bool paused() const { return paused_; }

  /// Pre-copy in progress: guest runs slightly slowed.
  void set_migrating(bool migrating);
  [[nodiscard]] bool migrating() const { return migrating_; }

  /// Aggregate demand this VM presents to its host. Cached: every mutation
  /// that can change it (member add/remove/re-key, VM caps or pause)
  /// funnels through reallocate() or rekey(), which drop the cache.
  [[nodiscard]] Resources aggregate_demand() const;

  void reallocate() override {
    agg_dirty_ = true;
    ExecutionSite::reallocate();
  }
  void rekey(Workload& member, bool reallocate) override {
    agg_dirty_ = true;
    ExecutionSite::rekey(member, reallocate);
  }

  /// Effective CPU / I/O efficiency given `active_io_vms` co-resident VMs
  /// currently performing I/O (includes this one).
  [[nodiscard]] double cpu_efficiency() const;
  [[nodiscard]] double io_efficiency(int active_io_vms) const;

  // --- internal: called by Machine / HybridCluster ---
  void attach_to(Machine* host) { host_ = host; }
  /// Distributes the grant across resident workloads by demand class and
  /// applies the taxes. The last fill stands when no member joined, left
  /// or was re-keyed and `grant` is byte-equal to the one it filled; the
  /// last rating stands when the fill did and so did its other inputs.
  /// `prof` (null unless profiled) counts the fill.
  void distribute(sim::SimTime now, const Resources& grant, int active_io_vms,
                  telemetry::Profiler* prof);
  /// Settles all resident workloads and decays the recent-I/O counter.
  void settle_all(sim::SimTime now);
  /// Stalls every member on a detach: zeroes the class rows' grants and
  /// speeds, counts as an install (so no member keeps its own copy) and
  /// marks the classes changed, so the next host refills and re-rates.
  void zero_grants();

 private:
  sim::Simulation& sim_;
  Machine* host_ = nullptr;
  double vcpus_;
  sim::MegaBytes memory_mb_;
  Resources caps_ = Resources::unbounded();
  bool dom0_ = false;
  bool paused_ = false;
  bool migrating_ = false;
  // Buffer-cache model: exponentially decayed volume of recent I/O.
  sim::MegaBytes recent_io_mb_;
  sim::SimTime last_decay_ = 0;
  // Refreshes the member sums below, in member order, when agg_dirty_.
  void refresh_member_sums() const;
  // Member-sum memo (see reallocate()): the clamped aggregate demand and
  // the memory the members use (io_efficiency()'s buffer-cache tax).
  mutable Resources agg_cache_{};
  mutable sim::MegaBytes used_mb_;
  mutable bool agg_dirty_ = true;
  // The grant distribute() last filled the classes with.
  Resources filled_grant_{};
  // The inputs of the last rating besides the fill: the CPU and I/O
  // efficiencies and the migration factor (by bytes), and the pause flag.
  std::array<double, 3> rated_with_{};
  bool rated_paused_ = false;
};

/// A physical server. Root of the allocation hierarchy.
class Machine : public ExecutionSite {
 public:
  Machine(sim::Simulation& sim, ReallocCoordinator& coordinator,
          std::string name, Resources capacity, const Calibration& cal);
  ~Machine() override;

  [[nodiscard]] sim::Simulation& simulation() override { return sim_; }
  [[nodiscard]] bool is_virtual() const override { return false; }
  [[nodiscard]] Machine* host_machine() override { return this; }
  [[nodiscard]] Resources nominal() const override { return capacity_; }

  [[nodiscard]] const Resources& capacity() const { return capacity_; }

  // --- VM hosting (VMs owned by the cluster) ---
  /// Both bump the coordinator's membership epoch.
  void attach_vm(VirtualMachine* vm);
  void detach_vm(VirtualMachine* vm);
  [[nodiscard]] const std::vector<VirtualMachine*>& vms() const {
    return vms_;
  }
  /// The cluster-wide coordinator this machine reallocates through.
  [[nodiscard]] const ReallocCoordinator& coordinator() const {
    return coordinator_;
  }

  // --- power ---
  void set_powered(bool on);
  [[nodiscard]] bool powered() const { return powered_; }
  [[nodiscard]] EnergyMeter& energy() {
    ensure_clean();
    return energy_;
  }

  // --- metrics ---
  /// Instantaneous utilization (allocated / capacity) per resource.
  /// Drains a pending reallocation first, so the reading is never stale.
  [[nodiscard]] double utilization(ResourceKind kind) const;
  [[nodiscard]] const stats::TimeSeries& utilization_series(
      ResourceKind kind) const {
    ensure_clean();
    return util_series_[static_cast<int>(kind)];
  }

  // --- deferred reallocation (see realloc.h) ---
  /// Marks derived allocation state stale. Deferred mode enqueues the
  /// machine with the coordinator (at most once); eager mode recomputes
  /// immediately.
  void invalidate();

  /// Drains a pending recompute, if any. Reads of allocation-dependent
  /// state route through this, so staleness is never observable. Logically
  /// const: recompute() only refreshes derived state.
  void ensure_clean() const {
    if (dirty_) {
      const_cast<Machine*>(this)->recompute(RecomputeCause::kReadBarrier);
    }
  }

  /// Brings every resident workload's lazy usage counters (cpu-seconds,
  /// I/O MB, progress) up to date at the current instant, applying any
  /// pending reallocation first. For profiler-style readers; allocations
  /// are unchanged.
  // sim-lint: allow(unused-api) storage_test, edge_test read settled counters
  void settle_now();

  /// Recomputes the whole allocation for this machine (native + VMs).
  /// Prefer invalidate()/ensure_clean(): calling this directly bypasses
  /// coalescing (hybridmr-analyze rule eager-recompute). The cause
  /// only feeds the profiler's work-attribution counters.
  void recompute(RecomputeCause cause = RecomputeCause::kDirect);

  /// recompute() passes since construction (tests/benchmarks).
  [[nodiscard]] std::uint64_t recompute_count() const {
    return recompute_count_;
  }
  /// A reallocation is pending (the coordinator skips a clean machine).
  [[nodiscard]] bool dirty() const { return dirty_; }
  /// (Re)schedules the completion event of a finite workload hosted
  /// anywhere on this machine, which now runs at `speed`, by defer()ing it
  /// in place. No-op when the recomputed finish time equals the
  /// already-scheduled one.
  void reschedule(const WorkloadPtr& workload, double speed);

  /// Attaches this machine to a telemetry hub: caches the hub's profiler
  /// when profiling is live (null detaches).
  void set_telemetry(telemetry::Hub* hub);

 private:
  sim::Simulation& sim_;
  Resources capacity_;
  PowerModel power_model_;
  EnergyMeter energy_;
  std::vector<VirtualMachine*> vms_;
  bool powered_ = true;
  Resources allocated_total_{};
  stats::TimeSeries util_series_[kNumResources];

  // Deferred-reallocation state.
  ReallocCoordinator& coordinator_;
  bool dirty_ = false;
  std::uint64_t recompute_count_ = 0;

  // recompute()'s fill rows for the VMs, one each beside the native
  // members' classes. Reused across passes (allocation-free steady state).
  std::vector<DemandClasses::Row> vm_rows_;

  // Cached profiler handle (null unless a profiled run; see realloc.h for
  // how causes are attributed).
  telemetry::Profiler* prof_ = nullptr;
  telemetry::ScopeId prof_recompute_scope_;
};

}  // namespace hybridmr::cluster
