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
// itself is allocation-free in steady state: each site groups its members
// into demand classes in a reusable table, fills and rates each class once,
// and only moves a completion event when the workload's finish time
// actually changed.
#pragma once

#include <cstdint>
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

/// Reusable group table for waterfill_into(): hot callers keep one per
/// call site so steady-state allocation is zero. Only fills with more than
/// a handful of distinct demand values use it (fewer fit on the stack).
struct WaterfillScratch {
  /// One distinct positive demand value and how many consumers ask for it.
  struct Group {
    double value = 0;
    std::uint32_t count = 0;
  };
  std::vector<Group> groups;
};

/// Max-min fair ("water-filling") split of `capacity` across consumers,
/// written into `out`. Row i stands for `counts[i]` consumers that each
/// demand `demands[i]`, and out[i] is what each of them gets (all three
/// spans have the same extent). Total allocated never exceeds capacity; no
/// consumer gets more than its demand; unsatisfied consumers get one equal
/// level. Non-positive and NaN demands get 0 and do not count. The grants
/// depend only on the multiset of demands: equal demands get bitwise-equal
/// grants, whether they sit in one row or several, and permuting the rows
/// permutes the grants.
void waterfill_into(double capacity, std::span<const double> demands,
                    std::span<const std::uint32_t> counts,
                    std::span<double> out, WaterfillScratch& scratch);

/// Allocating convenience wrapper around waterfill_into(), one consumer
/// per demand (tests, cold paths).
std::vector<double> waterfill(double capacity, std::span<const double> demands);

/// Reusable demand-class table: one per site, so steady-state allocation
/// is zero. A class is the members whose raw demand, effective demand and
/// pause flag agree byte for byte, which is everything the grant and the
/// speed read of a member; a class's members therefore get one grant and
/// one speed, and the site fills and rates each class once. Lookup is a
/// linear scan over at most kMaxClasses classes; a site with more gives
/// every member its own class (the same code, nothing grouped).
class DemandClasses {
 public:
  static constexpr std::size_t kMaxClasses = 8;

  /// One row of the fill: a class of members, or a consumer that stands
  /// for itself alone (a machine's VM; only `effective` and `grant` used).
  struct Row {
    Resources demand;     // raw demand (the speed reads it)
    Resources effective;  // after caps and pause (the fill reads it)
    bool paused = false;
    Resources grant{};
    double speed = 0;
  };

  /// Rebuilds the table from `members`: classes in first-appearance order,
  /// and row_of[i] the class of member i.
  void group(std::span<const WorkloadPtr> members);
  /// Appends a row for one consumer that is not a member.
  void add_single(const Resources& effective);
  /// Water-fills each resource of `capacity` across the rows, each row
  /// counting for its consumers, into the rows' grants. Counts the
  /// consumers and rows filled when `prof` is non-null.
  void fill(const Resources& capacity, telemetry::Profiler* prof);

  std::vector<Row> rows;
  std::vector<std::uint32_t> counts;  // consumers per row
  std::vector<std::uint32_t> row_of;  // row per member

 private:
  std::vector<double> column_;
  std::vector<double> column_out_;
  WaterfillScratch fill_scratch_;
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
  /// invalidate its aggregate-demand cache on the same mutations that dirty
  /// the host.
  virtual void reallocate();

  /// Drops any cached view of member demands *without* scheduling a
  /// reallocation. Workload::finish() zeroes its effective demand outside
  /// the reallocate() funnel (the removal that follows reallocates), so it
  /// calls this to keep a read-barrier recompute in between exact.
  virtual void invalidate_demand_cache() {}

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

  [[nodiscard]] const std::vector<WorkloadPtr>& workloads() const {
    return workloads_;
  }
  /// Sum of effective demands of resident workloads.
  [[nodiscard]] Resources total_demand() const;

 protected:
  explicit ExecutionSite(std::string name) : name_(std::move(name)) {}
  std::vector<WorkloadPtr> workloads_;

 private:
  std::string name_;
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
  [[nodiscard]] bool dom0() const { return dom0_; }

  /// VM-level throttles (cpu cores / disk / net) set by the DRM.
  void set_caps(const Resources& caps);
  [[nodiscard]] const Resources& caps() const { return caps_; }

  /// Pauses/resumes the whole VM (IPS action, or migration downtime).
  void set_paused(bool paused);
  [[nodiscard]] bool paused() const { return paused_; }

  /// Pre-copy in progress: guest runs slightly slowed.
  void set_migrating(bool migrating);
  [[nodiscard]] bool migrating() const { return migrating_; }

  /// Aggregate demand this VM presents to its host. Cached: every mutation
  /// that can change it (member add/remove/demand/caps/pause, VM caps or
  /// pause) funnels through reallocate(), which drops the cache.
  [[nodiscard]] Resources aggregate_demand() const;

  void reallocate() override {
    agg_dirty_ = true;
    ExecutionSite::reallocate();
  }
  void invalidate_demand_cache() override { agg_dirty_ = true; }

  /// Effective CPU / I/O efficiency given `active_io_vms` co-resident VMs
  /// currently performing I/O (includes this one).
  [[nodiscard]] double cpu_efficiency() const;
  [[nodiscard]] double io_efficiency(int active_io_vms) const;

  // --- internal: called by Machine / HybridCluster ---
  void attach_to(Machine* host) { host_ = host; }
  /// Distributes the grant across resident workloads by demand class and
  /// applies the taxes. `prof` (null unless profiled) counts the fill.
  void distribute(sim::SimTime now, const Resources& grant, int active_io_vms,
                  telemetry::Profiler* prof);
  /// Settles all resident workloads and decays the recent-I/O counter.
  void settle_all(sim::SimTime now);

  [[nodiscard]] const Calibration& calibration() const { return cal_; }

 private:
  sim::Simulation& sim_;
  Machine* host_ = nullptr;
  double vcpus_;
  sim::MegaBytes memory_mb_;
  const Calibration& cal_;
  Resources caps_ = Resources::unbounded();
  bool dom0_ = false;
  bool paused_ = false;
  bool migrating_ = false;
  // Buffer-cache model: exponentially decayed volume of recent I/O.
  sim::MegaBytes recent_io_mb_;
  sim::SimTime last_decay_ = 0;
  // aggregate_demand() memo (see reallocate()).
  mutable Resources agg_cache_{};
  mutable bool agg_dirty_ = true;
  // distribute()'s class table, reused across recomputes.
  DemandClasses classes_;
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
  [[nodiscard]] const Calibration& calibration() const { return cal_; }

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
  [[nodiscard]] const EnergyMeter& energy() const {
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
  /// Completion events left in place because the finish time was
  /// unchanged (the reschedule-churn fix; tests/benchmarks).
  // sim-lint: allow(unused-api) realloc_test: the reschedule-churn fix
  [[nodiscard]] std::uint64_t reschedule_skips() const {
    return reschedule_skips_;
  }
  /// (Re)schedules the completion event of a finite workload hosted
  /// anywhere on this machine by defer()ing it in place. No-op when the
  /// recomputed finish time equals the already-scheduled one.
  void reschedule(const WorkloadPtr& workload);

  /// Attaches this machine to a telemetry hub: caches the hub's profiler
  /// when profiling is live (null detaches).
  void set_telemetry(telemetry::Hub* hub);

 private:
  sim::Simulation& sim_;
  Resources capacity_;
  const Calibration& cal_;
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
  std::uint64_t reschedule_skips_ = 0;

  // recompute()'s class table: native members' classes, then one row per
  // VM. Reused across passes (allocation-free steady state).
  DemandClasses classes_;

  // Cached profiler handle (null unless a profiled run; see realloc.h for
  // how causes are attributed).
  telemetry::Profiler* prof_ = nullptr;
  telemetry::ScopeId prof_recompute_scope_;
};

}  // namespace hybridmr::cluster
