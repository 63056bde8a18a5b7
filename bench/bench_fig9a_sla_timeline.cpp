// Figure 9(a): response-time timeline of RUBiS and TPC-W collocated with
// MapReduce jobs; HybridMR's IPS detects the SLA excursions and migrates /
// throttles the interfering batch work, restoring latency.
//
// The timeline is reconstructed after the run — each app's response-time
// series and the kIpsAction trace events — instead of sampling live with
// sim-time callbacks.
#include "common.h"

#include "telemetry/telemetry.h"

using namespace hybridmr;
using namespace hybridmr::bench;

namespace {

// Mean of the samples in [60 (minute - 1), 60 minute), 0 when the app saw
// no samples there.
double minute_mean(const interactive::InteractiveApp& app, int minute) {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& s : app.response_series().samples()) {
    if (s.time >= 60.0 * (minute - 1) && s.time < 60.0 * minute) {
      sum += s.value;
      ++n;
    }
  }
  return n ? sum / n : 0;
}

}  // namespace

int main() {
  TestBed bed;
  std::vector<cluster::VirtualMachine*> app_vms;
  for (auto* host : bed.add_plain_machines(2)) {
    app_vms.push_back(bed.add_plain_vm(*host));
    auto* batch_vm = bed.add_plain_vm(*host);
    bed.hdfs().add_datanode(*batch_vm);
    bed.mr().add_tracker(*batch_vm);
  }
  bed.add_plain_machines(1);  // migration target

  core::HybridMROptions options;
  options.enable_phase1 = false;
  core::HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(),
                                 bed.mr(), options);
  hybrid.set_telemetry(bed.telemetry());
  hybrid.start();

  auto& rubis = hybrid.deploy_interactive(interactive::rubis_params(), 900,
                                          app_vms[0]);
  auto& tpcw = hybrid.deploy_interactive(interactive::tpcw_params(), 700,
                                         app_vms[1]);

  // Batch work arrives ~10 minutes in (the paper's excursion at minute 12).
  bed.sim().at(10 * 60, [&]() {
    bed.mr().submit(workload::sort_job().with_input_gb(6));
    bed.mr().submit(workload::twitter().with_input_gb(4));
  });

  bed.run_until(35 * 60);
  hybrid.stop();

  harness::banner(
      "Figure 9(a): response time (ms) of RUBiS and TPC-W over 35 minutes "
      "(SLA = 2000 ms; MapReduce jobs arrive at minute 10)");
  const telemetry::Hub* tel = bed.telemetry();
  Table table({"minute", "RUBiS (ms)", "TPC-W (ms)", "IPS actions",
               "migrations"});
  for (int minute = 1; minute <= 35; ++minute) {
    // Cumulative IPS activity up to this minute, straight off the trace.
    int actions = 0;
    int migrations = 0;
    for (const auto& e : tel->trace.events()) {
      if (e.kind != telemetry::EventKind::kIpsAction ||
          e.time_s > 60.0 * minute) {
        continue;
      }
      if (e.name == "migrate_vm") {
        ++migrations;
      } else if (e.name != "restore") {
        ++actions;
      }
    }
    table.row({std::to_string(minute),
               Table::num(1000 * minute_mean(rubis, minute), 0),
               Table::num(1000 * minute_mean(tpcw, minute), 0),
               std::to_string(actions), std::to_string(migrations)});
  }
  table.print();

  std::printf(
      "\n  SLA violation fraction over the run: RUBiS %.1f%%, TPC-W %.1f%%\n",
      100 * interactive::SlaMonitor::violation_fraction(rubis, 0, 2100),
      100 * interactive::SlaMonitor::violation_fraction(tpcw, 0, 2100));
  std::printf(
      "  paper: violations around minutes 12-14 are detected and latency "
      "returns below the SLA after task migration\n");
  rubis.stop();
  tpcw.stop();
  return 0;
}
