#include "cluster/machine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "audit/invariants.h"
#include "cluster/realloc.h"
#include "telemetry/telemetry.h"

namespace hybridmr::cluster {

namespace {

// Long sweeps bound each per-machine series (four utilization series plus
// the energy meter) at this many samples; beyond it, older samples merge
// pairwise into time-weighted means (integral-preserving), so memory is
// O(1) per machine instead of O(events).
constexpr std::size_t kMaxMachineSeriesSamples = 16384;

// Audit checkpoint after a site fills its classes: live rows whose
// effective demands of `kind` are equal hold bitwise-equal grants of it,
// and so do the `singles` (a machine's VMs), so the split cannot depend on
// the order the consumers were listed in or on how they were grouped.
[[maybe_unused]] bool equal_demands_equal_grants(
    const DemandClasses& classes, std::span<const DemandClasses::Row> singles,
    ResourceKind kind) {
  std::vector<std::pair<double, double>> held;  // (demand, grant)
  for (std::size_t r = 0; r < classes.rows.size(); ++r) {
    if (classes.counts[r] == 0) continue;
    const DemandClasses::Row& row = classes.rows[r];
    held.emplace_back(row.effective[kind], row.grant[kind]);
  }
  for (const auto& row : singles) {
    held.emplace_back(row.effective[kind], row.grant[kind]);
  }
  for (std::size_t i = 0; i < held.size(); ++i) {
    for (std::size_t j = i + 1; j < held.size(); ++j) {
      if (held[j].first == held[i].first && held[j].second != held[i].second) {
        return false;
      }
    }
  }
  return true;
}

bool same_bytes(const Resources& a, const Resources& b) {
  static_assert(sizeof(Resources) == kNumResources * sizeof(double));
  return std::memcmp(&a, &b, sizeof(Resources)) == 0;
}

// The class key: everything the grant and the speed read of a member.
bool in_class(const DemandClasses::Row& row, const Workload& w) {
  return row.paused == w.paused() &&
         same_bytes(row.effective, w.effective_demand()) &&
         same_bytes(row.demand, w.demand());
}

DemandClasses::Row class_row(const Workload& w) {
  return {w.demand(), w.effective_demand(), w.paused()};
}

using Group = DemandClasses::Group;

// One resource's ascending (value, count) table of its positive demands.
// Contended fills are mostly many flows with a few distinct demands, so a
// linear scan over a small sorted stack table does it; a resource with
// more than kFewValues distinct values overflows, and the fill sorts and
// run-length encodes its demands instead.
struct FewGroups {
  static constexpr std::size_t kFewValues = 8;
  std::array<Group, kFewValues> groups{};
  std::size_t size = 0;
  bool overflow = false;

  void add(double d, std::uint32_t count) {
    if (!(d > 0) || overflow) return;
    std::size_t g = 0;
    while (g < size && groups[g].value < d) ++g;
    if (g == size || groups[g].value != d) {
      if (size == kFewValues) {
        overflow = true;
        return;
      }
      std::copy_backward(groups.begin() + g, groups.begin() + size,
                         groups.begin() + size + 1);
      groups[g] = {d, 0};
      ++size;
    }
    groups[g].count += count;
  }
};

// Where one resource's fill levels off: demands up to `cut` are granted in
// full, every larger positive demand gets `level`.
struct Levelled {
  double cut = 0;
  double level = 0;

  [[nodiscard]] double grant(double d) const {
    return d > 0 ? (d <= cut ? d : level) : 0.0;
  }
};

// Max-min levelling of `capacity` over one resource's ascending groups.
Levelled level_groups(double capacity, std::span<const Group> groups) {
  if (capacity <= 0) return {};  // nothing to grant
  // Uncontended: when the demands fit, each is granted in full. Summed by
  // group in ascending order, so the test does not depend on the order the
  // consumers are listed in.
  double total = 0;
  double unsatisfied = 0;  // consumers with a positive demand
  for (const Group& g : groups) {
    total += g.value * g.count;
    unsatisfied += g.count;
  }
  if (total <= capacity) {
    return {std::numeric_limits<double>::infinity(), 0};
  }
  // Level the groups in ascending order: a group that fits under the fair
  // share of what is left is granted in full; every demand above the last
  // such group gets the fair share at the first group that does not fit.
  Levelled out;
  double remaining = capacity;
  for (const Group& g : groups) {
    const double fair = remaining / unsatisfied;
    if (g.value > fair) {
      out.level = fair;
      break;
    }
    remaining -= g.value * g.count;
    unsatisfied -= g.count;
    out.cut = g.value;
  }
  return out;
}

}  // namespace

std::vector<double> waterfill(double capacity,
                              std::span<const double> demands) {
  // One resource of the fill: each demand a single asking for CPU alone.
  std::vector<DemandClasses::Row> singles(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    singles[i].effective.cpu = demands[i];
  }
  DemandClasses{}.fill(Resources{capacity, 0, 0, 0}, singles, nullptr);
  std::vector<double> alloc(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    alloc[i] = singles[i].grant.cpu;
  }
  return alloc;
}

std::uint32_t DemandClasses::join(const Workload& w) {
  std::size_t free_row = rows.size();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (counts[r] == 0) {
      free_row = std::min(free_row, r);
    } else if (in_class(rows[r], w)) {
      ++counts[r];
      changed = true;
      return static_cast<std::uint32_t>(r);
    }
  }
  if (free_row == rows.size()) {
    rows.emplace_back();
    counts.push_back(0);
  }
  rows[free_row] = class_row(w);
  counts[free_row] = 1;
  changed = true;
  return static_cast<std::uint32_t>(free_row);
}

void DemandClasses::leave(std::uint32_t row) {
  assert(counts[row] > 0 && "leaving an empty class");
  if (--counts[row] == 0) {
    rows[row] = {};  // free: asks for nothing
    // Trailing free rows go; no member points past the last live row.
    while (!counts.empty() && counts.back() == 0) {
      rows.pop_back();
      counts.pop_back();
    }
  }
  changed = true;
}

void DemandClasses::fill(const Resources& capacity, std::span<Row> singles,
                         telemetry::Profiler* prof) {
  // 1. One pass buckets every resource's positive demands into its own
  // table, each row counting for its members.
  std::array<FewGroups, kNumResources> few;
  auto bucket = [&few](const Resources& d, std::uint32_t count) {
    few[0].add(d.cpu, count);
    few[1].add(d.memory, count);
    few[2].add(d.disk, count);
    few[3].add(d.net, count);
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bucket(rows[i].effective, counts[i]);
  }
  for (const Row& single : singles) bucket(single.effective, 1);

  // 2. Level each resource from its table; one that overflowed the stack
  // table sorts its demands into the scratch table and run-length encodes
  // them.
  std::array<Levelled, kNumResources> levelled;
  for (int r = 0; r < kNumResources; ++r) {
    const auto kind = static_cast<ResourceKind>(r);
    std::span<const Group> groups(few[r].groups.data(), few[r].size);
    if (few[r].overflow) {
      sorted_.clear();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const double d = rows[i].effective[kind];
        if (d > 0) sorted_.push_back({d, counts[i]});
      }
      for (const Row& single : singles) {
        const double d = single.effective[kind];
        if (d > 0) sorted_.push_back({d, 1});
      }
      std::sort(sorted_.begin(), sorted_.end(),
                [](const Group& a, const Group& b) { return a.value < b.value; });
      std::size_t runs = 0;
      for (const Group& g : sorted_) {
        if (runs > 0 && sorted_[runs - 1].value == g.value) {
          sorted_[runs - 1].count += g.count;
        } else {
          sorted_[runs++] = g;
        }
      }
      groups = std::span<const Group>(sorted_.data(), runs);
    }
    levelled[r] = level_groups(capacity[kind], groups);
  }

  // 3. One pass writes all four grants of each row.
  auto grant = [&levelled](const Resources& d) {
    return Resources{levelled[0].grant(d.cpu), levelled[1].grant(d.memory),
                     levelled[2].grant(d.disk), levelled[3].grant(d.net)};
  };
  for (Row& row : rows) row.grant = grant(row.effective);
  for (Row& single : singles) single.grant = grant(single.effective);
  changed = false;
  if (prof != nullptr) {
    std::uint64_t consumers = singles.size();
    std::uint64_t live = singles.size();
    for (const std::uint32_t c : counts) {
      consumers += c;
      live += c > 0 ? 1 : 0;
    }
    prof->add(telemetry::WorkCounter::kFillMembers, kNumResources * consumers);
    prof->add(telemetry::WorkCounter::kFillClasses, kNumResources * live);
  }
}

double memory_pressure_factor(double ratio, const Calibration& cal) {
  if (ratio >= 1.0) return 1.0;
  if (ratio < 0) ratio = 0;
  double factor;
  if (ratio >= cal.mem_soft_knee) {
    factor = 1.0 - cal.mem_soft_slope * (1.0 - ratio);
  } else {
    factor = 1.0 - cal.mem_soft_slope * (1.0 - cal.mem_soft_knee) -
             cal.mem_hard_slope * (cal.mem_soft_knee - ratio);
  }
  return std::max(cal.mem_floor, factor);
}

namespace {

/// Speed of a demand class's members given their (raw) demand, grant and
/// efficiencies. Using the raw demand means throttled or under-provisioned
/// workloads run proportionally slower, which is exactly the cgroup
/// semantics the DRM relies on.
double speed_of(const DemandClasses::Row& c, double eff_cpu, double eff_io,
                const Calibration& cal) {
  if (c.paused) return 0;
  const Resources& d = c.demand;
  const Resources& alloc = c.grant;
  // The I/O virtualization tax bites in proportion to how I/O-dominated
  // the workload is: a compute-heavy pipeline with a trickle of disk
  // traffic buffers through the tax, while a bulk stream feels it fully.
  // One core is weighted as one full disk stream's worth of work.
  double eff_io_weighted = eff_io;
  const double io_demand = d.disk + d.net;
  if (io_demand > 0 && d.cpu > 0) {
    const double f_io =
        io_demand / (io_demand + d.cpu * cal.hdfs_stream_disk_mbps.value());
    eff_io_weighted = 1.0 - (1.0 - eff_io) * f_io;
  }
  double speed = 1.0;
  if (d.cpu > 0) speed = std::min(speed, alloc.cpu * eff_cpu / d.cpu);
  if (d.disk > 0) {
    speed = std::min(speed, alloc.disk * eff_io_weighted / d.disk);
  }
  if (d.net > 0) speed = std::min(speed, alloc.net * eff_io_weighted / d.net);
  if (d.memory > 0) {
    speed *= memory_pressure_factor(alloc.memory / d.memory, cal);
  }
  return speed;
}

// Completion time of a workload that cannot currently make progress
// (paused, capped to nothing, starved, or on a detached VM). Its event
// parks here instead of being cancelled, keeping its identity — and its
// FIFO tie-break seat — for when an allocation revives it. The run loop
// treats a queue whose head is at infinity as drained
// (Simulation::dispatch_one).
constexpr sim::SimTime kNever = std::numeric_limits<double>::infinity();

// Completion closure shared by the attach-time parked event and the
// reschedule fallback push. Captures the simulation, not the machine: the
// closure outlives any number of reschedules (and possibly a migration off
// the original host), and the simulation is the only state it needs.
std::function<void()> completion_handler(sim::Simulation& sim,
                                         const WorkloadPtr& workload) {
  std::weak_ptr<Workload> weak = workload;
  return [&sim, weak]() {
    WorkloadPtr w = weak.lock();
    if (!w || w->done()) return;
    w->finish(sim.now());
    if (w->site() != nullptr) w->site()->remove(w.get());
    // Move the callback out before invoking: a completed workload must not
    // keep its completion closure (and the flow state / shared_ptrs it
    // captures) alive, or HDFS flows form reference cycles that leak.
    auto fire = std::move(w->on_complete);
    w->on_complete = nullptr;
    if (fire) fire();
  };
}

}  // namespace

// ---------------------------------------------------------------- Site ----

void ExecutionSite::add(WorkloadPtr workload) {
  assert(workload != nullptr);
  assert(workload->site_ == nullptr && "workload already attached");
  workload->site_ = this;
  const sim::SimTime now = simulation().now();
  workload->last_settle_ = now;
  workload->copied_at_ = installs_;  // holds zeros until the next install
  workload->site_row_ = classes_.join(*workload);
  workloads_.push_back(std::move(workload));
  const WorkloadPtr& added = workloads_.back();
  if (added->finite() && !added->done()) {
    // Reserve the completion event — and with it the event's FIFO
    // tie-break seat — here, at mutation time, parked at "never"; the
    // first recompute defers it in place to the real finish time.
    // Creating the event inside the recompute instead would order its
    // seat by *recompute* time, which differs between eager (per
    // mutation) and deferred (per drain) reallocation and would make
    // same-time event ties — and therefore entire schedules — depend on
    // the reallocation mode.
    added->completion_time = kNever;
    added->completion_event =
        simulation().at(kNever, completion_handler(simulation(), added));
  }
  reallocate();
}

void ExecutionSite::remove(Workload* workload) {
  auto it = std::find_if(
      workloads_.begin(), workloads_.end(),
      [workload](const WorkloadPtr& p) { return p.get() == workload; });
  if (it == workloads_.end()) return;
  WorkloadPtr keep = *it;  // keep alive through the tail of this function
  // Drain any pending reallocation first: the settle below runs at the
  // current rates and discards its I/O return, so a deferred recompute must
  // land before it (crediting every sibling's interval I/O to the VM cache
  // through settle_all) exactly as an eager recompute already would have.
  if (Machine* machine = host_machine(); machine != nullptr) {
    machine->ensure_clean();
  }
  const sim::SimTime now = simulation().now();
  settle(*keep, now);
  simulation().cancel(keep->completion_event);
  keep->completion_event = {};
  keep->speed_ = 0;
  keep->allocated_ = {};
  keep->site_ = nullptr;
  classes_.leave(keep->site_row_);
  workloads_.erase(it);
  reallocate();
}

void ExecutionSite::reallocate() {
  Machine* machine = host_machine();
  if (machine != nullptr) machine->invalidate();
}

void ExecutionSite::rekey(Workload& member, bool reallocate) {
  // A change that left the key as it was (a cap above the demand, say)
  // keeps the member's row.
  if (!in_class(classes_.rows[member.site_row_], member)) {
    // Until the next install the member holds what its old row granted.
    if (const DemandClasses::Row* held = held_row(member); held != nullptr) {
      member.allocated_ = held->grant;
      member.speed_ = held->speed;
      member.copied_at_ = installs_;
    }
    classes_.leave(member.site_row_);
    member.site_row_ = classes_.join(member);
  }
  if (reallocate) this->reallocate();
}

bool ExecutionSite::classes_match_members() const {
  if (classes_.counts.size() != classes_.rows.size()) return false;
  std::vector<std::uint32_t> pointing(classes_.rows.size(), 0);
  for (const auto& w : workloads_) {
    if (w->site_row_ >= pointing.size() ||
        !in_class(classes_.rows[w->site_row_], *w)) {
      return false;
    }
    ++pointing[w->site_row_];
  }
  for (std::size_t r = 0; r < pointing.size(); ++r) {
    if (pointing[r] != classes_.counts[r]) return false;
    if (pointing[r] == 0 && !same_bytes(classes_.rows[r].effective, {})) {
      return false;
    }
  }
  return true;
}

double ExecutionSite::settle_members(sim::SimTime now) {
  if (sim::same_time(settled_at_, now)) return 0;
  settled_at_ = now;
  double io_sum = 0;
  for (const auto& w : workloads_) io_sum += settle(*w, now);
  return io_sum;
}

Resources ExecutionSite::total_demand() const {
  Resources sum;
  for (const auto& w : workloads_) sum += w->effective_demand();
  return sum;
}

// ------------------------------------------------------------------ VM ----

VirtualMachine::VirtualMachine(sim::Simulation& sim, std::string name,
                               sim::CoreShare vcpus, sim::MegaBytes memory_mb,
                               const Calibration& cal)
    : ExecutionSite(std::move(name), cal),
      sim_(sim),
      vcpus_(vcpus.value()),
      memory_mb_(memory_mb) {}

Resources VirtualMachine::nominal() const {
  // Disk/net are shared with the host; the VM's nominal slice is the host
  // capacity divided by its resident VMs (placement-time estimate only).
  Resources n{vcpus_, memory_mb_.value(), cal_.pm_disk_mbps.value(),
              cal_.pm_net_mbps.value()};
  if (host_ != nullptr && !host_->vms().empty()) {
    const double k = static_cast<double>(host_->vms().size());
    n.disk /= k;
    n.net /= k;
  }
  return n.min(caps_);
}

void VirtualMachine::set_caps(const Resources& caps) {
  caps_ = caps;
  reallocate();
}

void VirtualMachine::set_paused(bool paused) {
  if (paused_ == paused) return;
  paused_ = paused;
  reallocate();
}

void VirtualMachine::set_migrating(bool migrating) {
  if (migrating_ == migrating) return;
  migrating_ = migrating;
  reallocate();
}

void VirtualMachine::refresh_member_sums() const {
  if (!agg_dirty_) return;
  Resources sum;
  sim::MegaBytes used_mb;
  for (const auto& w : workloads_) {
    sum += w->effective_demand();
    used_mb += sim::MegaBytes{w->demand().memory};
  }
  Resources limit = caps_;
  limit.cpu = std::min(limit.cpu, vcpus_);
  limit.memory = std::min(limit.memory, memory_mb_.value());
  if (!dom0_) limit.net = std::min(limit.net, cal_.vm_net_cap_mbps.value());
  agg_cache_ = sum.clamped_to(limit);
  used_mb_ = used_mb;
  agg_dirty_ = false;
}

Resources VirtualMachine::aggregate_demand() const {
  if (paused_) return {};
  refresh_member_sums();
  return agg_cache_;
}

double VirtualMachine::cpu_efficiency() const {
  return 1.0 - (dom0_ ? cal_.dom0_cpu_tax : cal_.cpu_tax);
}

double VirtualMachine::io_efficiency(int active_io_vms) const {
  if (dom0_) return 1.0 - cal_.dom0_io_tax;
  double tax = cal_.io_tax;
  if (active_io_vms > 1) {
    tax += cal_.io_contention_tax * static_cast<double>(active_io_vms - 1);
  }
  // Buffer-cache model: the page cache is whatever memory the resident
  // workloads leave free, so combined TaskTracker+DataNode VMs (task heap
  // squeezing the cache) hit the miss penalty much sooner than a dedicated
  // storage VM — the split-architecture advantage of Fig. 2(d)/Fig. 3.
  refresh_member_sums();
  const sim::MegaBytes free_mb =
      std::max(sim::MegaBytes{64.0}, memory_mb_ - used_mb_);
  const sim::MegaBytes knee = cal_.io_cache_knee_factor * free_mb;
  if (knee > sim::MegaBytes{}) {
    tax += cal_.io_cache_tax * std::min(1.0, recent_io_mb_ / knee);
  }
  return std::max(0.3, 1.0 - tax);
}

void VirtualMachine::settle_all(sim::SimTime now) {
  const double dt = now - last_decay_;
  if (dt > 0) {
    recent_io_mb_ *= std::exp2(-dt / cal_.io_cache_halflife_s);
    last_decay_ = now;
  }
  recent_io_mb_ += sim::MegaBytes{settle_members(now)};
}

void VirtualMachine::zero_grants() {
  for (DemandClasses::Row& row : classes_.rows) {
    row.grant = {};
    row.speed = 0;
  }
  ++installs_;
  classes_.changed = true;
}

void VirtualMachine::distribute([[maybe_unused]] sim::SimTime now,
                                const Resources& grant, int active_io_vms,
                                telemetry::Profiler* prof) {
  const double eff_cpu = cpu_efficiency();
  const double eff_io = io_efficiency(active_io_vms);
  const double migration_factor =
      migrating_ ? 1.0 - cal_.migration_guest_slowdown : 1.0;
  HYBRIDMR_AUDIT_CHECK(classes_match_members(), "cluster.machine",
                       "classes_match_members", now, {{"vm", name()}});
  // Water-fill each resource of the grant across the demand classes, unless
  // the last fill had the same classes and grant, and rate each class once,
  // unless the fill and the other rating inputs stood too. The members
  // read their grant and speed from their class rows.
  const bool refill = classes_.changed || !same_bytes(grant, filled_grant_);
  if (refill) {
    classes_.fill(grant, {}, prof);
    filled_grant_ = grant;
  }
  const std::array<double, 3> rate_with{eff_cpu, eff_io, migration_factor};
  if (refill || paused_ != rated_paused_ ||
      std::memcmp(rate_with.data(), rated_with_.data(),
                  sizeof(rate_with)) != 0) {
    for (std::size_t c = 0; c < classes_.rows.size(); ++c) {
      if (classes_.counts[c] == 0) continue;
      DemandClasses::Row& row = classes_.rows[c];
      double speed = paused_ ? 0.0 : speed_of(row, eff_cpu, eff_io, cal_);
      speed *= migration_factor;
      row.speed = speed;
    }
    rated_with_ = rate_with;
    rated_paused_ = paused_;
  }
  ++installs_;
  for (int r = 0; r < kNumResources; ++r) {
    [[maybe_unused]] const auto kind = static_cast<ResourceKind>(r);
    HYBRIDMR_AUDIT_CHECK(
        equal_demands_equal_grants(classes_, {}, kind), "cluster.machine",
        "equal_demands_equal_grants", now,
        {{"vm", name()}, {"resource", cluster::to_string(kind)}});
  }
  // Only a finite member has a completion event to move.
  if (host_ == nullptr) return;
  for (const auto& w : workloads_) {
    if (w->finite()) host_->reschedule(w, class_of(*w).speed);
  }
}

// -------------------------------------------------------------- Machine ----

Machine::Machine(sim::Simulation& sim, ReallocCoordinator& coordinator,
                 std::string name, Resources capacity, const Calibration& cal)
    : ExecutionSite(std::move(name), cal),
      sim_(sim),
      capacity_(capacity),
      power_model_{cal.pm_idle_watts, cal.pm_peak_watts},
      coordinator_(coordinator) {
  for (auto& series : util_series_) {
    series.set_max_samples(kMaxMachineSeriesSamples);
  }
  energy_.set_max_samples(kMaxMachineSeriesSamples);
  energy_.record(sim_.now(), power_model_.watts(sim::Fraction{0}));
}

Machine::~Machine() { coordinator_.forget(this); }

void Machine::attach_vm(VirtualMachine* vm) {
  assert(vm != nullptr && vm->host_machine() == nullptr);
  vm->attach_to(this);
  vms_.push_back(vm);
  coordinator_.bump_membership_epoch();
  invalidate();
}

void Machine::detach_vm(VirtualMachine* vm) {
  auto it = std::find(vms_.begin(), vms_.end(), vm);
  if (it == vms_.end()) return;
  // Freeze the VM's workloads: settle, zero speeds, park completion events
  // at "never" (keeping their tie-break seats for re-attachment).
  vm->settle_all(sim_.now());
  for (const auto& w : vm->workloads()) {
    if (w->completion_event.valid() && sim_.defer(w->completion_event,
                                                  kNever)) {
      w->completion_time = kNever;
    }
  }
  vm->zero_grants();
  vm->attach_to(nullptr);
  vms_.erase(it);
  coordinator_.bump_membership_epoch();
  invalidate();
}

void Machine::set_powered(bool on) {
  if (powered_ == on) return;
  powered_ = on;
  invalidate();
}

void Machine::invalidate() {
  if (coordinator_.eager()) {
    recompute(RecomputeCause::kEager);
    return;
  }
  if (!dirty_) {
    dirty_ = true;
    coordinator_.mark_dirty(this);
  }
}

void Machine::settle_now() {
  ensure_clean();
  const sim::SimTime now = sim_.now();
  settle_members(now);
  for (auto* vm : vms_) vm->settle_all(now);
}

double Machine::utilization(ResourceKind kind) const {
  ensure_clean();
  const double cap = capacity_[kind];
  return cap > 0 ? allocated_total_[kind] / cap : 0;
}

void Machine::reschedule(const WorkloadPtr& workload, double speed) {
  if (!workload->finite() || workload->done()) {
    if (workload->completion_event.valid()) {
      sim_.cancel(workload->completion_event);
      workload->completion_event = {};
    }
    return;
  }
  // A stalled workload (zero speed: paused, capped to nothing, starved)
  // completes "never": park its event at infinity rather than cancelling
  // it, so the event keeps its original tie-break seat for when an
  // allocation revives it.
  const sim::SimTime target =
      speed <= 0 ? kNever
                 : sim_.now() + (workload->remaining() / speed).value();
  if (workload->completion_event.valid() &&
      sim::same_time(target, workload->completion_time)) {
    // The recompute left this workload's finish time where it was; keep
    // the scheduled event instead of cancel/re-push churn (this also
    // preserves FIFO tie-break order across no-op reallocations).
    if (prof_ != nullptr) {
      prof_->add(telemetry::WorkCounter::kRescheduleSkipped);
    }
    return;
  }
  if (workload->completion_event.valid() &&
      sim_.defer(workload->completion_event, target)) {
    // The pending event moves in place and keeps its creation seq, so
    // same-time ties resolve in creation order.
    workload->completion_time = target;
    if (prof_ != nullptr) {
      prof_->add(telemetry::WorkCounter::kRescheduleDeferred);
    }
    return;
  }
  // No event, or its id went stale (fired or cancelled): push a fresh one.
  if (prof_ != nullptr) prof_->add(telemetry::WorkCounter::kReschedulePushed);
  workload->completion_time = target;
  workload->completion_event =
      sim_.at(target, completion_handler(sim_, workload));
}

void Machine::recompute(RecomputeCause cause) {
  // Clear the dirty flag first: the utilization()/ensure_clean() reads
  // below must not re-enter.
  dirty_ = false;
  ++recompute_count_;
  if (prof_ != nullptr) {
    switch (cause) {
      case RecomputeCause::kDirect:
        prof_->add(telemetry::WorkCounter::kRecomputeDirect);
        break;
      case RecomputeCause::kDrain:
        prof_->add(telemetry::WorkCounter::kRecomputeDrain);
        break;
      case RecomputeCause::kReadBarrier:
        prof_->add(telemetry::WorkCounter::kRecomputeReadBarrier);
        break;
      case RecomputeCause::kEager:
        prof_->add(telemetry::WorkCounter::kRecomputeEager);
        break;
    }
  }
  telemetry::Scope prof_scope(prof_, prof_recompute_scope_);
  const sim::SimTime now = sim_.now();

  // 1. Settle elapsed progress at the old rates (the rates the class rows
  // still hold), once per instant.
  settle_members(now);
  for (auto* vm : vms_) vm->settle_all(now);

  // 2. The native members' demand classes are standing state; each VM is
  // one more consumer that stands for itself.
  HYBRIDMR_AUDIT_CHECK(classes_match_members(), "cluster.machine",
                       "classes_match_members", now, {{"machine", name()}});
  vm_rows_.resize(vms_.size());
  for (std::size_t j = 0; j < vms_.size(); ++j) {
    vm_rows_[j].effective =
        powered_ ? vms_[j]->aggregate_demand() : Resources{};
  }

  // 3. Water-fill each physical resource across the rows (an unpowered
  // machine has nothing to grant) and rate each native class once, with
  // no virtualization tax.
  classes_.fill(powered_ ? capacity_ : Resources{}, vm_rows_, prof_);
  for (std::size_t c = 0; c < classes_.rows.size(); ++c) {
    if (classes_.counts[c] == 0) continue;
    classes_.rows[c].speed = speed_of(classes_.rows[c], 1.0, 1.0, cal_);
  }

  // 4. Install: the native members read their class rows. The
  // utilization total sums the grants in consumer order (members, then
  // VMs), one term per consumer, and only a finite member has a completion
  // event to move.
  ++installs_;
  allocated_total_ = {};
  for (const auto& w : workloads_) {
    const DemandClasses::Row& c = class_of(*w);
    allocated_total_ += c.grant;
    if (w->finite()) reschedule(w, c.speed);
  }
  for (const auto& row : vm_rows_) allocated_total_ += row.grant;
  for (int r = 0; r < kNumResources; ++r) {
    [[maybe_unused]] const auto kind = static_cast<ResourceKind>(r);
    HYBRIDMR_AUDIT_CHECK(
        equal_demands_equal_grants(classes_, vm_rows_, kind),
        "cluster.machine", "equal_demands_equal_grants", now,
        {{"machine", name()}, {"resource", cluster::to_string(kind)}});
  }

  // 5. Let each VM distribute its grant internally. The I/O-activity census
  // reuses the demands gathered in step 2 rather than re-aggregating per VM
  // (when unpowered the gathered demand is zero, but so is every grant, so
  // the efficiency factor it feeds is unobservable).
  int active_io_vms = 0;
  for (const auto& row : vm_rows_) {
    const Resources& d = row.effective;
    if (d.disk + d.net > 1.0) ++active_io_vms;  // > 1 MB/s = active I/O
  }
  for (std::size_t j = 0; j < vms_.size(); ++j) {
    vms_[j]->distribute(now, vm_rows_[j].grant, active_io_vms, prof_);
  }

  // 6. Metrics and power. Same-instant recordings coalesce: several
  // recomputes at one timestamp leave exactly one sample holding the final
  // value, so deferred and eager reallocation produce identical series.
  for (int r = 0; r < kNumResources; ++r) {
    const auto kind = static_cast<ResourceKind>(r);
    util_series_[r].add_coalesced(now, utilization(kind));
  }
  const double blended =
      0.7 * utilization(ResourceKind::kCpu) +
      0.3 * std::max(utilization(ResourceKind::kDisk),
                     utilization(ResourceKind::kNet));
  const sim::Watts watts =
      powered_ ? power_model_.watts(sim::Fraction{blended}) : sim::Watts{};
  for (int r = 0; r < kNumResources; ++r) {
    [[maybe_unused]] const auto kind = static_cast<ResourceKind>(r);
    // Conservation: water-filling may never hand out more of a resource
    // than the machine physically has (tolerance for fp accumulation).
    HYBRIDMR_AUDIT_CHECK(
        allocated_total_[kind] <= capacity_[kind] + 1e-6 ||
            allocated_total_[kind] <= capacity_[kind] * (1.0 + 1e-9),
        "cluster.machine", "shares_within_capacity", now,
        {{"machine", name()},
         {"resource", cluster::to_string(kind)},
         {"allocated", audit::num(allocated_total_[kind])},
         {"capacity", audit::num(capacity_[kind])}});
  }
  HYBRIDMR_AUDIT_CHECK(
      powered_ ? (watts >= power_model_.idle_watts - sim::Watts{1e-9} &&
                  watts <= power_model_.peak_watts + sim::Watts{1e-9})
               : watts <= sim::Watts{0},
      "cluster.machine", "power_within_model_bounds", now,
      {{"machine", name()},
       {"watts", audit::num(watts.value())},
       {"idle_watts", audit::num(power_model_.idle_watts.value())},
       {"peak_watts", audit::num(power_model_.peak_watts.value())}});
  energy_.record(now, watts);
}

void Machine::set_telemetry(telemetry::Hub* hub) {
  prof_ = hub != nullptr && hub->profiler.enabled() ? &hub->profiler : nullptr;
  if (prof_ != nullptr) {
    prof_recompute_scope_ = prof_->intern("cluster.machine.recompute");
  }
}

}  // namespace hybridmr::cluster
