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

// Audit checkpoint after a site installs its grants: members whose
// effective demands of `kind` are equal hold bitwise-equal grants of it,
// and so do the `singles` (a machine's VMs), so the split cannot depend on
// the order the consumers were listed in or on how they were grouped. It
// reads the grants the members hold, not the class rows, where it would
// hold by construction.
[[maybe_unused]] bool equal_demands_equal_grants(
    std::span<const WorkloadPtr> members,
    std::span<const DemandClasses::Row> singles, ResourceKind kind) {
  std::vector<std::pair<double, double>> held;  // (demand, grant)
  for (const auto& w : members) {
    held.emplace_back(w->effective_demand()[kind], w->allocated()[kind]);
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

}  // namespace

void waterfill_into(double capacity, std::span<const double> demands,
                    std::span<const std::uint32_t> counts,
                    std::span<double> out, WaterfillScratch& scratch) {
  const std::size_t n = demands.size();
  assert(out.size() == n && "output extent must match demands");
  assert(counts.size() == n && "counts extent must match demands");
  if (n == 0 || capacity <= 0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }

  // 1. Bucket the positive demands by value, in ascending order, each
  // group counting the consumers of every row that asks for its value.
  // Contended fills are mostly many flows with a few distinct demands, so
  // a linear scan over a small sorted stack table does it; past kFewValues
  // distinct values, sort a copy of the rows into the scratch table and
  // run-length encode it.
  using Group = WaterfillScratch::Group;
  constexpr std::size_t kFewValues = 8;
  std::array<Group, kFewValues> few{};
  std::size_t k = 0;
  bool few_values = true;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = demands[i];
    if (!(d > 0)) continue;
    std::size_t g = 0;
    while (g < k && few[g].value < d) ++g;
    if (g == k || few[g].value != d) {
      if (k == kFewValues) {
        few_values = false;
        break;
      }
      std::copy_backward(few.begin() + g, few.begin() + k,
                         few.begin() + k + 1);
      few[g] = {d, 0};
      ++k;
    }
    few[g].count += counts[i];
  }
  std::span<Group> groups(few.data(), k);
  if (!few_values) {
    auto& table = scratch.groups;
    table.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (demands[i] > 0) table.push_back({demands[i], counts[i]});
    }
    std::sort(table.begin(), table.end(),
              [](const Group& a, const Group& b) { return a.value < b.value; });
    std::size_t runs = 0;
    for (const Group& g : table) {
      if (runs > 0 && table[runs - 1].value == g.value) {
        table[runs - 1].count += g.count;
      } else {
        table[runs++] = g;
      }
    }
    groups = std::span<Group>(table.data(), runs);
  }

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
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = demands[i] > 0 ? demands[i] : 0.0;
    }
    return;
  }

  // 2. Level the groups in ascending order: a group that fits under the
  // fair share of what is left is granted in full.
  double remaining = capacity;
  double cut = 0;  // largest demand granted in full
  double level = 0;
  for (const Group& g : groups) {
    const double fair = remaining / unsatisfied;
    if (g.value > fair) {
      level = fair;
      break;
    }
    remaining -= g.value * g.count;
    unsatisfied -= g.count;
    cut = g.value;
  }

  // 3. Every demand above the last satisfied group gets the same level.
  for (std::size_t i = 0; i < n; ++i) {
    const double d = demands[i];
    out[i] = d > 0 ? (d <= cut ? d : level) : 0.0;
  }
}

std::vector<double> waterfill(double capacity,
                              std::span<const double> demands) {
  std::vector<double> alloc(demands.size(), 0.0);
  const std::vector<std::uint32_t> ones(demands.size(), 1);
  WaterfillScratch scratch;
  waterfill_into(capacity, demands, ones, alloc, scratch);
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
  const std::size_t n = rows.size();
  const std::size_t m = n + singles.size();
  column_.resize(m);
  column_out_.resize(m);
  column_counts_.assign(counts.begin(), counts.end());
  column_counts_.resize(m, 1);
  for (int r = 0; r < kNumResources; ++r) {
    const auto kind = static_cast<ResourceKind>(r);
    for (std::size_t i = 0; i < n; ++i) column_[i] = rows[i].effective[kind];
    for (std::size_t j = 0; j < singles.size(); ++j) {
      column_[n + j] = singles[j].effective[kind];
    }
    waterfill_into(capacity[kind], column_, column_counts_, column_out_,
                   fill_scratch_);
    for (std::size_t i = 0; i < n; ++i) rows[i].grant[kind] = column_out_[i];
    for (std::size_t j = 0; j < singles.size(); ++j) {
      singles[j].grant[kind] = column_out_[n + j];
    }
  }
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
  keep->settle(now);
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
  double io_sum = 0;
  for (const auto& w : workloads_) io_sum += w->settle(now);
  recent_io_mb_ += sim::MegaBytes{io_sum};
}

void VirtualMachine::distribute(sim::SimTime now, const Resources& grant,
                                int active_io_vms, telemetry::Profiler* prof) {
  const double eff_cpu = cpu_efficiency();
  const double eff_io = io_efficiency(active_io_vms);
  const double migration_factor =
      migrating_ ? 1.0 - cal_.migration_guest_slowdown : 1.0;
  HYBRIDMR_AUDIT_CHECK(classes_match_members(), "cluster.machine",
                       "classes_match_members", now, {{"vm", name()}});
  // Water-fill each resource of the grant across the demand classes, unless
  // the last fill had the same classes and grant, and rate each class once;
  // only the install is per member.
  if (classes_.changed || !same_bytes(grant, filled_grant_)) {
    classes_.fill(grant, {}, prof);
    filled_grant_ = grant;
  }
  for (std::size_t c = 0; c < classes_.rows.size(); ++c) {
    if (classes_.counts[c] == 0) continue;
    DemandClasses::Row& row = classes_.rows[c];
    double speed = paused_ ? 0.0 : speed_of(row, eff_cpu, eff_io, cal_);
    speed *= migration_factor;
    row.speed = speed;
  }
  for (const auto& w : workloads_) {
    const DemandClasses::Row& c = class_of(*w);
    w->apply_allocation(now, c.grant, c.speed);
    if (host_ != nullptr) host_->reschedule(w);
  }
  for (int r = 0; r < kNumResources; ++r) {
    [[maybe_unused]] const auto kind = static_cast<ResourceKind>(r);
    HYBRIDMR_AUDIT_CHECK(
        equal_demands_equal_grants(workloads_, {}, kind), "cluster.machine",
        "equal_demands_equal_grants", now,
        {{"vm", name()}, {"resource", cluster::to_string(kind)}});
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
    w->apply_allocation(sim_.now(), {}, 0);
  }
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
  for (const auto& w : workloads_) w->settle(now);
  for (auto* vm : vms_) vm->settle_all(now);
}

double Machine::utilization(ResourceKind kind) const {
  ensure_clean();
  const double cap = capacity_[kind];
  return cap > 0 ? allocated_total_[kind] / cap : 0;
}

void Machine::reschedule(const WorkloadPtr& workload) {
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
      workload->speed() <= 0
          ? kNever
          : sim_.now() + (workload->remaining() / workload->speed()).value();
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

  // 1. Settle elapsed progress at the old rates.
  for (const auto& w : workloads_) w->settle(now);
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

  // 4. Install per native member. The utilization total sums the grants
  // in consumer order (members, then VMs), one term per consumer.
  allocated_total_ = {};
  for (const auto& w : workloads_) {
    const DemandClasses::Row& c = class_of(*w);
    w->apply_allocation(now, c.grant, c.speed);
    reschedule(w);
    allocated_total_ += c.grant;
  }
  for (const auto& row : vm_rows_) allocated_total_ += row.grant;
  for (int r = 0; r < kNumResources; ++r) {
    [[maybe_unused]] const auto kind = static_cast<ResourceKind>(r);
    HYBRIDMR_AUDIT_CHECK(
        equal_demands_equal_grants(workloads_, vm_rows_, kind),
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
