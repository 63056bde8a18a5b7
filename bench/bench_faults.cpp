// Chaos scenario: the same heterogeneous batch run twice — once on a
// healthy virtualized cluster, once under a seeded fault schedule (two host
// crashes with reboots, a Poisson task-failure stream, and a live migration
// whose destination dies mid pre-copy). The point is graceful degradation:
// the chaos run must complete (no hangs, every job finished or deliberately
// failed) with a bounded makespan stretch, replication back at the
// configured factor, and all the recovery counters accounted for.
//
// Usage: bench_faults [--seed N] [--out FILE]
// --out writes the chaos run's full report JSON; the golden_bench_faults
// test pins the seed-7 stdout and report (tests/goldens/bench_faults.*).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/table.h"
#include "harness/testbed.h"
#include "workload/benchmarks.h"

namespace {

using namespace hybridmr;

struct Outcome {
  int jobs_ok = 0;
  int jobs_failed = 0;
  double makespan_s = 0;
  int requeues = 0;
  int attempt_failures = 0;
  int maps_reexecuted = 0;
  double re_replicated_mb = 0;
  int crashes = 0;
  int reboots = 0;
  int migrations_aborted = 0;
  std::string report_json;
};

Outcome run_scenario(std::uint64_t seed, bool chaos) {
  harness::TestBed::Options o;
  o.seed = seed;
  // Stock Hadoop replication: with RF 3 over 12 DataNodes a single host
  // crash (2 co-hosted VMs) can never take a block's last replica, so the
  // scenario measures recovery cost, not unlucky placement.
  o.calibration.hdfs_replicas = 3;
  if (chaos) {
    // Two host crashes (each takes down 2 VMs: trackers, DataNodes and
    // any replica they held), both rebooting a minute later...
    o.faults.one_shot.push_back({faults::FaultSpec::Kind::kMachineCrash,
                                 /*at=*/30.0, "vhost1", sim::Duration{60.0}});
    o.faults.one_shot.push_back({faults::FaultSpec::Kind::kMachineCrash,
                                 /*at=*/90.0, "vhost3", sim::Duration{60.0}});
    // ...the migration destination dying mid pre-copy...
    o.faults.one_shot.push_back({faults::FaultSpec::Kind::kMachineCrash,
                                 /*at=*/15.0, "plain1", sim::Duration{45.0}});
    // ...plus a background stream of attempt failures. The horizon keeps
    // the stream from re-arming forever once the batch drains.
    o.faults.task_failure_rate = 0.02;
    o.faults.rate_horizon_s = 240;
    o.faults.seed = seed ^ 0x9e3779b9;
  }
  harness::TestBed bed(o);
  bed.add_virtual_nodes(/*hosts=*/6, /*vms_per_host=*/2);
  auto plains = bed.add_plain_machines(2);
  cluster::VirtualMachine* stray = bed.add_plain_vm(*plains[0]);

  // A migration in flight when "plain1" dies at t=15: an idle 1 GB guest
  // pre-copies for ~100 s, so the abort lands mid pre-copy.
  bed.sim().at(10.0, [&] {
    bed.cluster().migrator().migrate(*stray, *plains[1]);
  });

  std::vector<mapred::JobSpec> specs{
      workload::sort_job().with_input_gb(2.0),
      workload::dist_grep().with_input_gb(4.0),
      workload::wcount().with_input_gb(2.0),
  };
  bed.run_jobs(specs);

  Outcome out;
  for (const auto& job : bed.mr().jobs()) {
    if (job->succeeded()) ++out.jobs_ok;
    out.makespan_s = std::max(out.makespan_s, job->finish_time());
  }
  out.jobs_failed = bed.mr().jobs_failed();
  out.requeues = bed.mr().requeued();
  out.attempt_failures = bed.mr().attempt_failures();
  out.maps_reexecuted = bed.mr().maps_reexecuted();
  out.re_replicated_mb = bed.hdfs().re_replicated_mb().value();
  if (bed.faults() != nullptr) {
    out.crashes = bed.faults()->stats().machine_crashes;
    out.reboots = bed.faults()->stats().machine_reboots;
    out.migrations_aborted = bed.faults()->stats().migrations_aborted;
  }
  std::ostringstream os;
  bed.report().to_json(os);
  out.report_json = os.str();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_faults [--seed N] [--out FILE]\n");
      return 2;
    }
  }

  harness::banner("Chaos: batch under crashes, retries and aborted moves");
  const Outcome base = run_scenario(seed, /*chaos=*/false);
  const Outcome chaos = run_scenario(seed, /*chaos=*/true);

  harness::Table table({"scenario", "jobs_ok", "jobs_failed", "makespan_s",
                        "requeues", "task_failures", "maps_reexec",
                        "rereplicated_mb", "crashes/reboots",
                        "moves_aborted"});
  auto row = [&](const char* name, const Outcome& o) {
    table.row({name, std::to_string(o.jobs_ok), std::to_string(o.jobs_failed),
               harness::Table::num(o.makespan_s),
               std::to_string(o.requeues), std::to_string(o.attempt_failures),
               std::to_string(o.maps_reexecuted),
               harness::Table::num(o.re_replicated_mb, 0),
               std::to_string(o.crashes) + "/" + std::to_string(o.reboots),
               std::to_string(o.migrations_aborted)});
  };
  row("healthy", base);
  row("chaos", chaos);
  table.print();

  const double stretch =
      base.makespan_s > 0 ? chaos.makespan_s / base.makespan_s : 0;
  std::printf("\nmakespan stretch under chaos: %.2fx\n", stretch);

  // Graceful degradation, not collapse: the run finished (or we would not
  // be here), every job reached a terminal state, and recovery actually
  // ran. Exit non-zero so CI catches a chaos scenario that stopped biting.
  const int total = chaos.jobs_ok + chaos.jobs_failed;
  if (total != 3 || chaos.crashes == 0 || chaos.migrations_aborted == 0) {
    std::fprintf(stderr,
                 "bench_faults: chaos run degenerated (terminal jobs %d/3, "
                 "crashes %d, aborts %d)\n",
                 total, chaos.crashes, chaos.migrations_aborted);
    return 1;
  }

  if (out_path != nullptr) {
    std::ofstream f(out_path);
    if (!f) {
      std::fprintf(stderr, "bench_faults: cannot write %s\n", out_path);
      return 1;
    }
    f << chaos.report_json;
    std::printf("bench_faults: wrote %s\n", out_path);
  }
  return 0;
}
