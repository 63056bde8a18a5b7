// Quickstart: build a hybrid cluster, wrap it in HybridMR, submit a mixed
// batch of MapReduce jobs and watch Phase I steer them between the native
// and virtual partitions.
//
// The run also dumps quickstart_trace.json (load it in chrome://tracing or
// Perfetto) and quickstart_report.json into the working directory.
//
//   $ ./quickstart
#include <cstdio>
#include <fstream>

#include "core/hybridmr.h"
#include "harness/table.h"
#include "interactive/presets.h"
#include "harness/testbed.h"
#include "workload/benchmarks.h"

int main() {
  using namespace hybridmr;

  // A small hybrid data center: 4 native Hadoop nodes plus 8 VMs packed on
  // 4 more physical machines (the paper's 2-VMs-per-PM shape).
  harness::TestBed bed;
  bed.add_native_nodes(4);
  bed.add_virtual_nodes(/*hosts=*/4, /*vms_per_host=*/2);

  core::HybridMROptions options;
  options.phase1.training_cluster_sizes = {2};
  core::HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(),
                                 bed.mr(), options);
  hybrid.set_telemetry(bed.telemetry());
  hybrid.start();

  // An interactive tenant occupies part of the virtual cluster.
  auto& rubis = hybrid.deploy_interactive(interactive::rubis_params(), 600);

  // Submit a mix of the paper's benchmarks (scaled down so the example
  // finishes in a blink of simulated time).
  struct Row {
    mapred::Job* job;
    core::PhaseOneScheduler::Decision decision;
  };
  std::vector<Row> rows;
  for (const auto& base : {workload::sort_job().with_input_gb(2),
                           workload::pi_est().with_input_gb(0.5),
                           workload::wcount().with_input_gb(2),
                           workload::kmeans().with_input_gb(1)}) {
    Row row;
    row.job = hybrid.submit(base);
    row.decision = hybrid.last_decision();
    rows.push_back(row);
  }

  // Run the simulated cluster until everything finishes.
  while (true) {
    bool done = true;
    for (const auto& row : rows) done = done && row.job->finished();
    if (done) break;
    bed.sim().run_until(bed.sim().now() + 120);
  }
  hybrid.stop();

  harness::banner("HybridMR quickstart: Phase I placements and outcomes");
  harness::Table table({"job", "placement", "est overhead", "JCT (s)",
                        "map (s)", "reduce (s)"});
  for (const auto& row : rows) {
    table.row({row.job->spec().name,
               row.decision.pool == mapred::PlacementPool::kNativeOnly
                   ? "native"
                   : "virtual",
               harness::Table::pct(row.decision.overhead),
               harness::Table::num(row.job->jct()),
               harness::Table::num(row.job->map_phase_seconds()),
               harness::Table::num(row.job->reduce_phase_seconds())});
  }
  table.print();

  std::printf("\nInteractive tenant %s: response time %.0f ms (SLA %.0f ms)\n",
              rubis.name().c_str(), rubis.response_time_s() * 1000,
              rubis.params().sla_s.value() * 1000);
  std::printf("Simulated time: %.0f s, events processed: %zu\n",
              bed.sim().now(), bed.sim().events_processed());

  // Telemetry artifacts: a Chrome/Perfetto trace plus the run report.
  if (bed.telemetry() != nullptr) {
    std::vector<const interactive::InteractiveApp*> apps;
    for (const auto& app : hybrid.apps()) apps.push_back(app.get());
    const telemetry::RunReport report = bed.report(apps);

    std::ofstream trace("quickstart_trace.json");
    bed.telemetry()->trace.to_chrome(trace);
    std::ofstream json("quickstart_report.json");
    report.to_json(json);
    std::printf(
        "Telemetry: %zu trace events -> quickstart_trace.json "
        "(chrome://tracing), report -> quickstart_report.json\n",
        bed.telemetry()->trace.size());
  }
  return 0;
}
