#include "core/reconfigurator.h"

#include <algorithm>

#include "sim/log.h"
#include "telemetry/telemetry.h"

namespace hybridmr::core {

using cluster::Machine;
using cluster::VirtualMachine;

bool Reconfigurator::idle(const Machine& machine) const {
  auto busy = [&](const cluster::ExecutionSite& site) {
    const mapred::TaskTracker* tracker = mr_->tracker_on(site);
    return tracker != nullptr && !tracker->running().empty();
  };
  if (busy(machine)) return false;
  for (const auto* vm : machine.vms()) {
    if (busy(*vm)) return false;
  }
  return true;
}

bool Reconfigurator::decommission_site(cluster::ExecutionSite& site) {
  const mapred::TaskTracker* tracker = mr_->tracker_on(site);
  if (tracker != nullptr) {
    if (!tracker->running().empty()) return false;
    if (!mr_->remove_tracker(site)) return false;
  }
  if (hdfs_->datanode_on(&site) != nullptr) {
    if (!hdfs_->remove_datanode(site)) return false;
  }
  return true;
}

std::vector<VirtualMachine*> Reconfigurator::virtualize_node(
    Machine& machine, int vms_per_host) {
  if (!idle(machine) || !machine.vms().empty()) return {};
  if (!decommission_site(machine)) return {};

  std::vector<VirtualMachine*> vms;
  const auto& cal = cluster_->calibration();
  const sim::CoreShare vcpus{std::max(1.0, cal.pm_cores / vms_per_host)};
  const sim::MegaBytes memory = vms_per_host <= 2
                                    ? cal.pm_memory_mb / (2.0 * vms_per_host)
                                    : cal.pm_memory_mb / vms_per_host;
  for (int i = 0; i < vms_per_host; ++i) {
    VirtualMachine* vm = cluster_->add_vm(machine, "", vcpus, memory);
    hdfs_->add_datanode(*vm);
    mr_->add_tracker(*vm);
    vms.push_back(vm);
  }
  ++stats_.virtualized;
  sim::log_info(cluster_->simulation().now(), "reconfig",
                machine.name() + ": native -> " +
                    std::to_string(vms_per_host) + " VMs");
  if (tel_ != nullptr) {
    tel_->trace.instant(cluster_->simulation().now(),
                        telemetry::EventKind::kReconfiguration, "virtualize",
                        machine.name(),
                        {{"vms", telemetry::json_num(vms_per_host)}});
  }
  mr_->dispatch();
  return vms;
}

bool Reconfigurator::nativize_host(Machine& machine) {
  if (!idle(machine)) return false;
  // Decommission and detach every resident VM.
  const std::vector<VirtualMachine*> vms = machine.vms();
  for (VirtualMachine* vm : vms) {
    if (mr_->tracker_on(*vm) != nullptr &&
        !mr_->tracker_on(*vm)->running().empty()) {
      return false;
    }
  }
  for (VirtualMachine* vm : vms) {
    if (!decommission_site(*vm)) return false;
    machine.detach_vm(vm);
  }
  hdfs_->add_datanode(machine);
  mr_->add_tracker(machine);
  ++stats_.nativized;
  sim::log_info(cluster_->simulation().now(), "reconfig",
                machine.name() + ": " + std::to_string(vms.size()) +
                    " VMs -> native");
  if (tel_ != nullptr) {
    tel_->trace.instant(
        cluster_->simulation().now(), telemetry::EventKind::kReconfiguration,
        "nativize", machine.name(),
        {{"vms", telemetry::json_num(static_cast<double>(vms.size()))}});
  }
  mr_->dispatch();
  return true;
}

}  // namespace hybridmr::core
