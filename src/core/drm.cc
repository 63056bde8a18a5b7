#include "core/drm.h"

#include <algorithm>
#include <map>

#include "sim/log.h"
#include "telemetry/telemetry.h"

namespace hybridmr::core {

using cluster::ResourceKind;
using cluster::Resources;
using mapred::TaskAttempt;

NodeReport LocalResourceManager::profile(
    const std::vector<TaskAttempt*>& resident, double now) {
  NodeReport report;
  report.site = site_;
  for (TaskAttempt* a : resident) {
    if (!a->running()) continue;
    estimator_->observe(*a, now);
    report.attempts.push_back(a);
    report.total_demand += a->current_demand();
    report.total_alloc += a->current_allocation();
  }
  return report;
}

ContentionDetector::Result ContentionDetector::classify(
    const std::vector<NodeReport>& reports, const Estimator& estimator) const {
  Result result;
  // First pass: find deficit tasks per physical host.
  std::map<const cluster::Machine*, bool> host_has_deficit;
  for (const auto& report : reports) {
    const cluster::Machine* host = report.site->host_machine();
    for (TaskAttempt* a : report.attempts) {
      const TaskModel* model = estimator.model(a);
      if (model == nullptr || model->empty()) continue;
      if (model->bottleneck().has_value() &&
          model->last().alloc.dominant_share(model->last().demand) <
              kDeficitThreshold) {
        result.deficit.push_back(a);
        host_has_deficit[host] = true;
      }
    }
  }
  // Second pass: fully-satisfied tasks sharing a host with a deficit task
  // are the candidates to squeeze.
  for (const auto& report : reports) {
    const cluster::Machine* host = report.site->host_machine();
    if (!host_has_deficit[host]) continue;
    for (TaskAttempt* a : report.attempts) {
      const TaskModel* model = estimator.model(a);
      if (model == nullptr || model->empty()) continue;
      if (!model->bottleneck().has_value() &&
          std::find(result.deficit.begin(), result.deficit.end(), a) ==
              result.deficit.end()) {
        result.hogging.push_back(a);
      }
    }
  }
  return result;
}

void PerformanceBalancer::balance_memory(
    const NodeReport& report,
    const std::function<bool(const TaskAttempt&)>& exempt, Stats& stats) {
  const double capacity = report.site->nominal().memory;

  // Memory admission: the site can satisfy only so many resident task
  // heaps; running fewer tasks at full speed beats thrashing all of them
  // (the piecewise-linear penalty is superlinear below the knee).
  std::vector<TaskAttempt*> unpaused;
  std::vector<TaskAttempt*> ours_paused;
  double demand = 0;
  for (TaskAttempt* a : report.attempts) {
    if (exempt && exempt(*a)) continue;
    if (paused_.contains(a)) {
      ours_paused.push_back(a);
    } else if (!a->paused()) {
      unpaused.push_back(a);
      demand += a->current_demand().memory;
    }
  }
  // Pause youngest-first while oversubscribed.
  std::sort(unpaused.begin(), unpaused.end(),
            [](const TaskAttempt* a, const TaskAttempt* b) {
              return a->started_at() > b->started_at();
            });
  for (TaskAttempt* a : unpaused) {
    if (demand <= capacity || unpaused.size() <= 1) break;
    const double mem = a->current_demand().memory;
    if (mem <= 0) continue;
    if (demand - mem < capacity * 0.5) continue;  // never pause below 50% use
    a->set_paused(true);
    paused_.insert(a);
    demand -= mem;
    ++stats.memory_pauses;
  }
  // Resume oldest-first when space opened up.
  std::sort(ours_paused.begin(), ours_paused.end(),
            [](const TaskAttempt* a, const TaskAttempt* b) {
              return a->started_at() < b->started_at();
            });
  for (TaskAttempt* a : ours_paused) {
    const double mem = a->current_demand().memory;
    if (demand + mem <= capacity) {
      a->set_paused(false);
      paused_.erase(a);
      demand += mem;
      ++stats.memory_resumes;
    }
  }
}

void PerformanceBalancer::balance_host_io(cluster::Machine& host,
                                          const std::vector<NodeReport>&
                                              reports,
                                          Stats& stats) {
  if (!options_->manage_io) return;
  // Count I/O-active tasks per VM of this host; weight each VM's share of
  // the physical disk/net by its task count (cgroup blkio weights).
  std::vector<std::pair<cluster::VirtualMachine*, int>> tasks_per_vm;
  int total_tasks = 0;
  for (const auto& report : reports) {
    if (report.site->host_machine() != &host || !report.site->is_virtual()) {
      continue;
    }
    auto* vm = static_cast<cluster::VirtualMachine*>(report.site);
    int io_tasks = 0;
    for (TaskAttempt* a : report.attempts) {
      const Resources d = a->current_demand();
      if (d.disk + d.net > 0.5 || a->current_allocation().disk > 0.5) {
        ++io_tasks;
      }
    }
    // Every running task is a potential I/O issuer across its phases;
    // weight by resident tasks with a floor of the measured I/O tasks.
    const int weight =
        std::max(io_tasks, static_cast<int>(report.attempts.size()));
    tasks_per_vm.emplace_back(vm, weight);
    total_tasks += weight;
  }
  // Only arbitrate when the hosts' VMs carry *unequal* task loads: equal
  // loads already get equal shares from the hypervisor, and binding caps
  // would only destroy work conservation.
  bool unequal = false;
  for (auto& [vm, n] : tasks_per_vm) {
    if (n * static_cast<int>(tasks_per_vm.size()) != total_tasks) {
      unequal = true;
    }
  }
  if (tasks_per_vm.size() < 2 || total_tasks == 0 || !unequal) {
    // Nothing to arbitrate: lift any caps we previously set on this host.
    for (auto* vm : host.vms()) {
      if (vm_capped_.erase(vm) > 0) {
        vm->set_caps(Resources::unbounded());
        ++stats.vm_share_updates;
      }
    }
    return;
  }
  const Resources cap = host.capacity();
  for (auto& [vm, n] : tasks_per_vm) {
    // Weighted share with 25% headroom: per-task fairness without giving up
    // work conservation entirely.
    const double share =
        1.25 * static_cast<double>(n) / total_tasks;
    Resources caps = Resources::unbounded();
    caps.disk = std::max(5.0, cap.disk * share);
    caps.net = std::max(5.0, cap.net * share);
    vm->set_caps(caps);
    vm_capped_.insert(vm);
    ++stats.vm_share_updates;
  }
}

PerformanceBalancer::Stats PerformanceBalancer::balance(
    const std::vector<NodeReport>& reports,
    const std::function<bool(const TaskAttempt&)>& exempt) {
  Stats stats;
  for (const auto& report : reports) {
    // Lift static slot caps on managed resources: allocation becomes
    // demand-driven (the machine's max-min fair share).
    for (TaskAttempt* a : report.attempts) {
      if (exempt && exempt(*a)) continue;
      Resources caps = a->base_caps();
      if (options_->manage_cpu) {
        caps.cpu = std::numeric_limits<double>::infinity();
      }
      if (options_->manage_io) {
        caps.disk = std::numeric_limits<double>::infinity();
        caps.net = std::numeric_limits<double>::infinity();
      }
      if (options_->manage_memory) {
        caps.memory = std::numeric_limits<double>::infinity();
      }
      if (!(caps.cpu == a->caps().cpu && caps.memory == a->caps().memory &&
            caps.disk == a->caps().disk && caps.net == a->caps().net)) {
        a->set_caps(caps);
        ++stats.cap_updates;
      }
    }
    if (options_->manage_memory) balance_memory(report, exempt, stats);
  }
  return stats;
}

void PerformanceBalancer::prune(const std::vector<TaskAttempt*>& live) {
  std::erase_if(paused_, [&](TaskAttempt* a) {
    return std::find(live.begin(), live.end(), a) == live.end();
  });
}

DynamicResourceManager::DynamicResourceManager(sim::Simulation& sim,
                                               mapred::MapReduceEngine& mr,
                                               cluster::HybridCluster& cluster,
                                               Estimator& estimator,
                                               DrmOptions options)
    : sim_(sim),
      mr_(mr),
      cluster_(cluster),
      estimator_(estimator),
      options_(options),
      balancer_(options_, estimator) {}

void DynamicResourceManager::epoch() {
  const double now = sim_.now();
  const PerformanceBalancer::Stats before = lifetime_;
  auto attempts = mr_.running_attempts();
  estimator_.retain_only(attempts);
  balancer_.prune(attempts);

  // Group attempts by execution site (one LRM per node), in tracker order
  // so the control decisions are deterministic.
  std::vector<std::pair<cluster::ExecutionSite*, std::vector<TaskAttempt*>>>
      by_site;
  for (TaskAttempt* a : attempts) {
    if (!a->running()) continue;
    auto it = std::find_if(by_site.begin(), by_site.end(),
                           [&](const auto& e) { return e.first == &a->site(); });
    if (it == by_site.end()) {
      by_site.emplace_back(&a->site(), std::vector<TaskAttempt*>{a});
    } else {
      it->second.push_back(a);
    }
  }
  std::vector<NodeReport> reports;
  reports.reserve(by_site.size());
  for (auto& [site, resident] : by_site) {
    LocalResourceManager lrm(*site, estimator_);
    reports.push_back(lrm.profile(resident, now));
  }

  const auto contention = detector_.classify(reports, estimator_);
  const auto stats = balancer_.balance(reports, exempt_);
  for (const auto& m : cluster_.machines()) {
    balancer_.balance_host_io(*m, reports, lifetime_);
  }
  lifetime_.cap_updates += stats.cap_updates;
  lifetime_.memory_pauses += stats.memory_pauses;
  lifetime_.memory_resumes += stats.memory_resumes;

  if (tel_ != nullptr) {
    const int caps = lifetime_.cap_updates - before.cap_updates;
    const int pauses = lifetime_.memory_pauses - before.memory_pauses;
    const int resumes = lifetime_.memory_resumes - before.memory_resumes;
    const int shares = lifetime_.vm_share_updates - before.vm_share_updates;
    const bool active = caps + pauses + resumes + shares > 0 ||
                        !contention.deficit.empty() ||
                        !contention.hogging.empty();
    if (active) {
      tel_->trace.instant(
          now, telemetry::EventKind::kDrmDecision, "drm_epoch", "drm",
          {{"deficit", telemetry::json_num(
                           static_cast<double>(contention.deficit.size()))},
           {"hogging", telemetry::json_num(
                           static_cast<double>(contention.hogging.size()))},
           {"cap_updates", telemetry::json_num(caps)},
           {"memory_pauses", telemetry::json_num(pauses)},
           {"memory_resumes", telemetry::json_num(resumes)},
           {"vm_share_updates", telemetry::json_num(shares)}});
    }
  }
}

void DynamicResourceManager::start() {
  if (ticker_.active()) return;
  ticker_ = sim_.every(options_.epoch_s, [this]() { epoch(); },
                       options_.epoch_s / 2);
}

void DynamicResourceManager::stop() { ticker_.cancel(); }

}  // namespace hybridmr::core
