#include "harness/testbed.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

#include "interactive/sla.h"
#include "mapred/scheduler.h"
#include "stats/summary.h"

namespace hybridmr::harness {

TestBed::TestBed(Options options) : options_(std::move(options)) {
  // Opt-in profiling without recompiling callers: HYBRIDMR_PROFILE=1|on
  // enables, =0|off disables, unset defers to Options::profile. Any other
  // value throws, so a run meant to be profiled cannot quietly not be.
  if (const char* env = std::getenv("HYBRIDMR_PROFILE")) {
    const std::string v = env;
    if (v == "1" || v == "on") {
      options_.profile = true;
    } else if (v == "0" || v == "off") {
      options_.profile = false;
    } else {
      throw std::invalid_argument("HYBRIDMR_PROFILE: unknown value '" + v +
                                  "' (expected 1, on, 0 or off)");
    }
  }
  sim_ = std::make_unique<sim::Simulation>(options_.seed);
  if (options_.telemetry || options_.profile) {
    tel_ = std::make_unique<telemetry::Hub>();
  }
  if (tel_ && options_.profile) {
    // Enable before any set_telemetry call below: components cache their
    // profiler pointer (and intern scopes) while wiring.
    tel_->profiler.enable();
    tel_->profiler.set_simulation(sim_.get());
    tel_->profiler.set_watchdog(options_.watchdog, nullptr);
    sim_->set_probe(&tel_->profiler);
  }
  cluster_ = std::make_unique<cluster::HybridCluster>(*sim_,
                                                      options_.calibration);
  hdfs_ = std::make_unique<storage::Hdfs>(*sim_, options_.calibration);
  mapred::MapReduceEngine::Options mr_options;
  mr_options.speculative_execution = options_.speculative_execution;
  mr_ = std::make_unique<mapred::MapReduceEngine>(
      *sim_, *hdfs_, options_.calibration,
      mapred::make_scheduler(options_.scheduler), mr_options);
  if (tel_) {
    cluster_->set_telemetry(tel_.get());
    mr_->set_telemetry(tel_.get());
    hdfs_->set_telemetry(tel_.get());
  }
  if (!options_.faults.empty()) {
    faults_ = std::make_unique<faults::FaultInjector>(
        *sim_, *cluster_, *hdfs_, *mr_, options_.faults);
    if (tel_) faults_->set_telemetry(tel_.get());
    faults_->arm();
  }
}

cluster::ExecutionSite* TestBed::register_node(cluster::ExecutionSite& site,
                                               bool datanode, bool tracker) {
  if (datanode) hdfs_->add_datanode(site);
  if (tracker) mr_->add_tracker(site);
  return &site;
}

std::vector<cluster::ExecutionSite*> TestBed::add_native_nodes(int count) {
  std::vector<cluster::ExecutionSite*> out;
  for (auto* m : cluster_->add_machines(count, "native")) {
    out.push_back(register_node(*m, /*datanode=*/true, /*tracker=*/true));
  }
  return out;
}

std::pair<sim::CoreShare, sim::MegaBytes> TestBed::partitioned_vm_shape(
    int vms_per_host) const {
  const auto& cal = options_.calibration;
  // One vCPU minimum: Xen's credit scheduler is work-conserving, so a
  // lone busy VM can use a full core even at high packing density.
  const sim::CoreShare vcpus{std::max(1.0, cal.pm_cores / vms_per_host)};
  // Up to two VMs per host, half of each VM's memory slice goes to the
  // guest (the rest stays with Dom-0 and the page cache): at 2 VMs per
  // dual-core 4 GB server this is exactly the paper's 1 vCPU / 1 GB
  // configuration. Denser packings squeeze Dom-0 instead (0.75 x slice).
  const sim::MegaBytes memory = vms_per_host <= 2
                                    ? cal.pm_memory_mb / (2.0 * vms_per_host)
                                    : cal.pm_memory_mb / vms_per_host;
  return {vcpus, memory};
}

std::vector<cluster::ExecutionSite*> TestBed::add_virtual_nodes(
    int hosts, int vms_per_host, bool partitioned) {
  std::vector<cluster::ExecutionSite*> out;
  const auto [vcpus, memory] = partitioned_vm_shape(vms_per_host);
  for (auto* m : cluster_->add_machines(hosts, "vhost")) {
    for (int i = 0; i < vms_per_host; ++i) {
      auto* vm = partitioned ? cluster_->add_vm(*m, "", vcpus, memory)
                             : cluster_->add_vm(*m);
      out.push_back(register_node(*vm, /*datanode=*/true, /*tracker=*/true));
    }
  }
  return out;
}

std::vector<cluster::ExecutionSite*> TestBed::add_split_nodes(
    int hosts, int compute_vms_per_host) {
  std::vector<cluster::ExecutionSite*> out;
  const auto [vcpus, memory] = partitioned_vm_shape(compute_vms_per_host);
  for (auto* m : cluster_->add_machines(hosts, "split-host")) {
    // One lean storage VM per host: it only runs the DataNode daemon, so
    // half a vCPU and a small guest heap suffice — its memory is almost
    // entirely page cache (the split architecture's win).
    auto* dn_vm =
        cluster_->add_vm(*m, "", sim::CoreShare{0.5}, sim::MegaBytes{512});
    hdfs_->add_datanode(*dn_vm);
    // ...and compute VMs shaped like the combined deployment's.
    for (int i = 0; i < compute_vms_per_host; ++i) {
      auto* vm = cluster_->add_vm(*m, "", vcpus, memory);
      out.push_back(register_node(*vm, /*datanode=*/false, /*tracker=*/true));
    }
  }
  return out;
}

std::vector<cluster::ExecutionSite*> TestBed::add_dom0_nodes(int count) {
  std::vector<cluster::ExecutionSite*> out;
  const auto& cal = options_.calibration;
  for (auto* m : cluster_->add_machines(count, "dom0-host")) {
    auto* vm = cluster_->add_vm(*m, m->name() + "-dom0",
                                sim::CoreShare{cal.pm_cores},
                                cal.pm_memory_mb);
    vm->set_dom0(true);
    out.push_back(register_node(*vm, /*datanode=*/true, /*tracker=*/true));
  }
  return out;
}

std::vector<cluster::Machine*> TestBed::add_plain_machines(int count) {
  return cluster_->add_machines(count, "plain");
}

cluster::VirtualMachine* TestBed::add_plain_vm(cluster::Machine& host) {
  return cluster_->add_vm(host);
}

// A watchdog stall requests a Simulation::stop(), but run_until() resets
// that request on every call — so the run loops below must also check the
// profiler, or they would resume a stalled run forever.
bool TestBed::stalled() const {
  return tel_ && tel_->profiler.stalled();
}

double TestBed::run_job(const mapred::JobSpec& spec) {
  mapred::Job* job = mr_->submit(spec);
  while (!job->finished() && !stalled() &&
         sim_->run_until(sim_->now() + 600) > 0) {
  }
  assert((job->finished() || stalled()) &&
         "job did not finish (deadlocked cluster?)");
  return job->jct();
}

std::vector<double> TestBed::run_jobs(
    const std::vector<mapred::JobSpec>& specs) {
  std::vector<mapred::Job*> jobs;
  jobs.reserve(specs.size());
  for (const auto& spec : specs) jobs.push_back(mr_->submit(spec));
  bool all_done = false;
  while (!all_done && !stalled()) {
    if (sim_->run_until(sim_->now() + 600) == 0) break;
    all_done = true;
    for (auto* j : jobs) all_done = all_done && j->finished();
  }
  std::vector<double> jcts;
  jcts.reserve(jobs.size());
  for (auto* j : jobs) jcts.push_back(j->jct());
  return jcts;
}

telemetry::RunReport TestBed::report(
    const std::vector<const interactive::InteractiveApp*>& apps) const {
  telemetry::RunReport report;
  const double end = sim_->now();
  report.sim_end_s = end;
  report.events_processed = sim_->events_processed();
  report.clamped_past_events = sim_->clamped_past_events();
  report.events_scheduled = sim_->events_scheduled();
  report.events_cancelled = sim_->events_cancelled();
  report.events_deferred = sim_->events_deferred();
  report.max_queue_depth = sim_->max_queue_depth();
  report.max_event_fanout = sim_->max_event_fanout();
  report.flush_scheduled_events = sim_->flush_scheduled_events();
  report.profiler = profiler();

  for (const auto& job : mr_->jobs()) {
    telemetry::RunReport::JobRow row;
    row.id = job->id();
    row.name = job->spec().name;
    row.state = mapred::to_string(job->state());
    row.maps = static_cast<int>(job->maps().size());
    row.reduces = static_cast<int>(job->reduces().size());
    row.submit_s = job->submit_time();
    row.finish_s = job->finish_time();
    row.jct_s = job->jct();
    row.map_phase_s = job->map_phase_seconds();
    row.reduce_phase_s = job->reduce_phase_seconds();
    row.shuffle_mb = job->total_map_output_mb();
    report.jobs.push_back(std::move(row));
  }

  // Machine series are resampled into fixed windows so reports stay small
  // on long runs: 10 s windows, widened to cap a run at ~2000 points.
  double window = 10.0;
  if (end / window > 2000) window = end / 2000;
  for (const auto& m : cluster_->machines()) {
    telemetry::RunReport::MachineRow row;
    row.name = m->name();
    row.vms = static_cast<int>(m->vms().size());
    row.powered = m->powered();
    row.mean_cpu =
        m->utilization_series(cluster::ResourceKind::kCpu).mean_in(0, end);
    row.mean_memory =
        m->utilization_series(cluster::ResourceKind::kMemory).mean_in(0, end);
    row.mean_disk =
        m->utilization_series(cluster::ResourceKind::kDisk).mean_in(0, end);
    row.mean_net =
        m->utilization_series(cluster::ResourceKind::kNet).mean_in(0, end);
    row.energy_joules = m->energy().joules(0, end);
    row.mean_watts = m->energy().mean_watts(0, end);
    const auto& cpu =
        m->utilization_series(cluster::ResourceKind::kCpu);
    const auto& power = m->energy().series();
    for (double t = 0; t < end; t += window) {
      const double t1 = std::min(t + window, end);
      row.cpu_series.push_back({t, cpu.mean_in(t, t1)});
      row.power_series.push_back({t, power.mean_in(t, t1)});
    }
    report.machines.push_back(std::move(row));
  }

  for (const auto* app : apps) {
    if (app == nullptr) continue;
    telemetry::RunReport::AppRow row;
    row.name = app->name();
    row.sla_s = app->params().sla_s;
    const std::vector<double> values = app->response_series().values();
    row.samples = values.size();
    row.mean_s = stats::mean(values);
    row.p50_s = stats::percentile(values, 50);
    row.p95_s = stats::percentile(values, 95);
    row.p99_s = stats::percentile(values, 99);
    row.max_s =
        values.empty() ? 0 : *std::max_element(values.begin(), values.end());
    row.violation_fraction =
        interactive::SlaMonitor::violation_fraction(*app, 0, end);
    report.apps.push_back(std::move(row));
  }

  return report;
}

}  // namespace hybridmr::harness
