#include "cluster/cluster.h"

#include <cstdint>
#include <utility>

#include "telemetry/telemetry.h"

namespace hybridmr::cluster {

void HybridCluster::number(ExecutionSite& site) const {
  site.ordinal_ =
      static_cast<std::uint32_t>(machines_.size() + vms_.size() - 1);
}

Machine* HybridCluster::add_machine(const std::string& name) {
  const std::string n =
      name.empty() ? "pm" + std::to_string(machines_.size()) : name;
  machines_.push_back(
      std::make_unique<Machine>(sim_, realloc_, n, cal_.pm_capacity(), cal_));
  number(*machines_.back());
  if (tel_ != nullptr) machines_.back()->set_telemetry(tel_);
  return machines_.back().get();
}

std::vector<Machine*> HybridCluster::add_machines(int n,
                                                  const std::string& prefix) {
  std::vector<Machine*> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(add_machine(prefix + std::to_string(i)));
  }
  return out;
}

VirtualMachine* HybridCluster::add_vm(Machine& host, const std::string& name,
                                      sim::CoreShare vcpus,
                                      sim::MegaBytes memory_mb) {
  const std::string n =
      name.empty() ? "vm" + std::to_string(vms_.size()) : name;
  vms_.push_back(std::make_unique<VirtualMachine>(
      sim_, n,
      vcpus > sim::CoreShare{0} ? vcpus : sim::CoreShare{cal_.vm_vcpus},
      memory_mb > sim::MegaBytes{0} ? memory_mb
                                    : cal_.vm_memory_mb,
      cal_));
  VirtualMachine* vm = vms_.back().get();
  number(*vm);
  host.attach_vm(vm);
  return vm;
}

std::vector<VirtualMachine*> HybridCluster::virtualize(Machine& host,
                                                       int count) {
  std::vector<VirtualMachine*> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(add_vm(host));
  return out;
}

Machine* HybridCluster::machine(const std::string& name) const {
  for (const auto& m : machines_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

sim::Joules HybridCluster::energy_joules(sim::SimTime t0,
                                         sim::SimTime t1) const {
  sim::Joules total;
  for (const auto& m : machines_) total += m->energy().joules(t0, t1);
  return total;
}

double HybridCluster::mean_utilization(ResourceKind kind, double t0,
                                       double t1) const {
  double total = 0;
  int n = 0;
  for (const auto& m : machines_) {
    if (!m->powered()) continue;
    total += m->samples().integrate(kind, t0, t1) / (t1 > t0 ? t1 - t0 : 1);
    ++n;
  }
  return n > 0 ? total / n : 0;
}

void HybridCluster::set_telemetry(telemetry::Hub* hub) {
  tel_ = hub;
  migrator_.set_telemetry(hub);
  realloc_.set_profiler(
      hub != nullptr && hub->profiler.enabled() ? &hub->profiler : nullptr);
  for (const auto& m : machines_) m->set_telemetry(hub);
}

}  // namespace hybridmr::cluster
