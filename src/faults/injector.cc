#include "faults/injector.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace hybridmr::faults {

using cluster::ExecutionSite;
using cluster::Machine;
using cluster::VirtualMachine;

void FaultInjector::arm() {
  for (const FaultSpec& spec : schedule_.one_shot) {
    // The injector outlives every pending event (the TestBed tears the
    // event queue down first), so the raw `this` capture is safe.
    // sim-lint: allow(capture-lifetime)
    sim_.at(spec.at, [this, spec]() { fire(spec); });
  }
  if (schedule_.task_failure_rate > 0) schedule_next_task_failure();
}

void FaultInjector::fire(const FaultSpec& spec) {
  switch (spec.kind) {
    case FaultSpec::Kind::kMachineCrash: {
      Machine* m = pick_machine(spec.target);
      if (m != nullptr) crash_machine(*m, spec.recover_after);
      break;
    }
    case FaultSpec::Kind::kTaskFailure:
      fail_attempt(spec.target);
      break;
    case FaultSpec::Kind::kTrackerTimeout: {
      ExecutionSite* site = nullptr;
      if (spec.target.empty()) {
        const auto& trackers = mr_.trackers();
        if (!trackers.empty()) {
          site = &trackers[rng_.index(trackers.size())]->site();
        }
      } else {
        for (const auto& tr : mr_.trackers()) {
          if (tr->site().name() == spec.target) {
            site = &tr->site();
            break;
          }
        }
      }
      if (site != nullptr) timeout_tracker(*site, spec.recover_after);
      break;
    }
  }
}

void FaultInjector::schedule_next_task_failure() {
  const double gap = rng_.exponential(schedule_.task_failure_rate);
  if (schedule_.rate_horizon_s > 0 &&
      sim_.now() + gap > schedule_.rate_horizon_s) {
    return;
  }
  // sim-lint: allow(capture-lifetime)
  sim_.after(sim::Duration{gap}, [this]() {
    fail_attempt();
    schedule_next_task_failure();
  });
}

bool FaultInjector::is_down(const Machine& machine) const {
  return std::any_of(down_.begin(), down_.end(),
                     [&](const DownMachine& d) { return d.machine == &machine; });
}

Machine* FaultInjector::pick_machine(const std::string& target) {
  if (!target.empty()) {
    Machine* m = cluster_.machine(target);
    return m != nullptr && m->powered() && !is_down(*m) ? m : nullptr;
  }
  std::vector<Machine*> up;
  for (const auto& m : cluster_.machines()) {
    if (m->powered() && !is_down(*m)) up.push_back(m.get());
  }
  if (up.empty()) return nullptr;
  return up[rng_.index(up.size())];
}

bool FaultInjector::fail_attempt(const std::string& label_prefix) {
  mapred::TaskAttempt* victim = nullptr;
  const auto attempts = mr_.running_attempts();
  if (attempts.empty()) return false;
  if (label_prefix.empty()) {
    victim = attempts[rng_.index(attempts.size())];
  } else {
    for (mapred::TaskAttempt* a : attempts) {
      if (a->label().rfind(label_prefix, 0) == 0) {
        victim = a;
        break;
      }
    }
  }
  if (victim == nullptr) return false;
  ++stats_.task_failures;
  mr_.fail_attempt(*victim, /*ban_tracker=*/false);
  return true;
}

bool FaultInjector::timeout_tracker(ExecutionSite& site,
                                    sim::Duration restore_after) {
  if (!mr_.mark_tracker_lost(site)) return false;
  ++stats_.tracker_timeouts;
  if (restore_after >= sim::Duration{0}) {
    ExecutionSite* sp = &site;
    // sim-lint: allow(capture-lifetime)
    sim_.after(restore_after, [this, sp]() {
      if (mr_.restore_tracker(*sp)) ++stats_.tracker_restores;
    });
  }
  return true;
}

bool FaultInjector::crash_machine(Machine& machine,
                                  sim::Duration reboot_after) {
  if (!machine.powered() || is_down(machine)) return false;
  ++stats_.machine_crashes;

  // 1) Migrations with a dead endpoint roll the VM back to its source (a
  //    VM migrating *off* this machine is still here and dies with it).
  stats_.migrations_aborted += cluster_.migrator().abort_involving(machine);

  DownMachine rec;
  rec.machine = &machine;
  rec.vms = machine.vms();  // snapshot: detach mutates the list

  std::vector<ExecutionSite*> sites;
  for (VirtualMachine* vm : rec.vms) sites.push_back(vm);
  sites.push_back(&machine);

  // 2) Replica loss first, in one batch, so no dying DataNode is chosen as
  //    a re-replication source or target and redispatched tasks (step 3)
  //    only read from survivors.
  std::vector<ExecutionSite*> dn_sites;
  for (ExecutionSite* s : sites) {
    if (hdfs_.datanode_on(s) != nullptr) dn_sites.push_back(s);
  }
  const int lost_before = hdfs_.blocks_lost();
  stats_.datanodes_crashed += hdfs_.crash_datanodes(dn_sites);
  rec.datanode_sites = dn_sites;
  const int blocks_lost = hdfs_.blocks_lost() - lost_before;
  // A job whose input lost its last replica can never finish its reads.
  for (const auto& job : mr_.jobs()) {
    if (job->finished()) continue;
    if (hdfs_.has_lost_block(job->input_file())) {
      mr_.fail_job(*job, "input block lost in crash of " + machine.name());
    }
  }

  // 3) Tracker loss: blacklist, requeue resident + dependent attempts,
  //    re-execute completed map outputs stored on the dead sites.
  for (ExecutionSite* s : sites) {
    if (mr_.mark_tracker_lost(*s)) rec.tracker_sites.push_back(s);
  }

  // 4) Tear down whatever still runs on the dying sites — HDFS serve
  //    flows, interactive workloads, leftover streams. Removal never fires
  //    completions, so nothing observes the half-dead state.
  for (ExecutionSite* s : sites) {
    while (!s->members().empty()) {
      s->remove(s->members().back().workload);
    }
  }

  // 5) Detach the (now empty) VMs and cut the power.
  for (VirtualMachine* vm : rec.vms) machine.detach_vm(vm);
  machine.set_powered(false);

  if (tel_ != nullptr) {
    tel_->trace.instant(
        sim_.now(), telemetry::EventKind::kMachineCrash, machine.name(),
        machine.name(),
        {{"vms", telemetry::json_num(static_cast<int>(rec.vms.size()))},
         {"datanodes",
          telemetry::json_num(static_cast<int>(dn_sites.size()))},
         {"trackers",
          telemetry::json_num(static_cast<int>(rec.tracker_sites.size()))}});
    if (!dn_sites.empty()) {
      tel_->trace.instant(
          sim_.now(), telemetry::EventKind::kReplicaLoss, machine.name(),
          machine.name(),
          {{"blocks_lost", telemetry::json_num(blocks_lost)}});
    }
  }
  down_.push_back(std::move(rec));

  if (reboot_after >= sim::Duration{0}) {
    Machine* mp = &machine;
    // sim-lint: allow(capture-lifetime)
    sim_.after(reboot_after, [this, mp]() { reboot_machine(*mp); });
  }
  return true;
}

void FaultInjector::reboot_machine(Machine& machine) {
  auto it = std::find_if(down_.begin(), down_.end(), [&](const DownMachine& d) {
    return d.machine == &machine;
  });
  if (it == down_.end()) return;
  DownMachine rec = std::move(*it);
  down_.erase(it);

  ++stats_.machine_reboots;
  machine.set_powered(true);
  for (VirtualMachine* vm : rec.vms) machine.attach_vm(vm);
  // DataNodes come back empty: their blocks were re-replicated elsewhere
  // during the crash, and new placements may use them again.
  for (ExecutionSite* s : rec.datanode_sites) hdfs_.add_datanode(*s);
  for (ExecutionSite* s : rec.tracker_sites) {
    if (mr_.restore_tracker(*s)) ++stats_.tracker_restores;
  }
  if (tel_ != nullptr) {
    tel_->trace.instant(sim_.now(), telemetry::EventKind::kMachineReboot,
                        machine.name(), machine.name());
  }
}

}  // namespace hybridmr::faults
