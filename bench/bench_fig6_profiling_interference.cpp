// Figure 6:
//   (a) Phase I profiling accuracy: actual vs estimated JCT over 24 samples
//   (b) JCT slowdown of PiEst / Sort under collocated CPU load
//   (c) JCT slowdown of PiEst / Sort under collocated I/O load
#include "common.h"

#include "core/profiler.h"
#include "stats/summary.h"

using namespace hybridmr;
using namespace hybridmr::bench;

namespace {

/// Runs one job on a VM collocated with background VMs exerting the given
/// CPU (cores) and disk (MB/s) load on a quad-core host (as in the paper's
/// microbenchmark).
double contended_jct(const mapred::JobSpec& spec, double bg_cpu_cores,
                     double bg_disk_mbps) {
  TestBed::Options o;
  o.calibration.pm_cores = 4;  // the paper used a quad-core server here
  TestBed bed(o);
  auto* host = bed.add_plain_machines(1)[0];
  auto* job_vm = bed.cluster().add_vm(*host, "job-vm", sim::CoreShare{1}, sim::MegaBytes{1024});
  bed.hdfs().add_datanode(*job_vm);
  bed.mr().add_tracker(*job_vm, 1, 1);
  // The paper pins each VM to a core and runs 8 contending threads; the
  // CPU contenders time-share the job's core, so we inject them into the
  // job VM, while the I/O contenders live on sibling VMs (the disk is
  // shared host-wide either way).
  for (int t = 0; t < static_cast<int>(bg_cpu_cores + 0.5); ++t) {
    cluster::Resources d;
    d.cpu = 1.0;  // one contending thread
    job_vm->add(
        std::make_shared<cluster::Workload>(d, cluster::Workload::kService));
  }
  for (int i = 0; i < 3 && bg_disk_mbps > 0; ++i) {
    auto* vm =
        bed.cluster().add_vm(*host, "bg" + std::to_string(i), sim::CoreShare{4},
                             sim::MegaBytes{512});
    cluster::Resources d;
    d.disk = bg_disk_mbps / 3.0;
    vm->add(
        std::make_shared<cluster::Workload>(d, cluster::Workload::kService));
  }
  return bed.run_job(spec);
}

}  // namespace

int main() {
  harness::banner(
      "Figure 6(a): Phase I profiling accuracy on Sort (train on small "
      "configurations, estimate 24 held-out configurations)");
  core::ProfileDatabase db;
  core::JobProfiler profiler(db, core::make_simulated_runner());
  const auto sort = workload::sort_job();
  const std::vector<int> train_sizes{4, 8};
  const std::vector<double> train_data{1.0, 2.0, 4.0};
  profiler.train(sort, /*virtual_cluster=*/true, train_sizes, train_data);

  Table fig6a({"sample", "cluster", "data (GB)", "actual (s)",
               "estimated (s)", "error"});
  stats::Accumulator errors;
  int sample = 0;
  auto runner = core::make_simulated_runner(99);
  for (int vms : {4, 6, 8, 10, 12, 16}) {
    for (double gb : {3.0, 6.0, 8.0, 10.0}) {
      const auto truth = runner(sort, true, vms, gb);
      const auto est = profiler.estimate(sort.with_input_gb(gb), true, vms);
      const double err = std::abs(est.jct_s - truth.jct_s) / truth.jct_s;
      errors.add(err);
      fig6a.row({std::to_string(++sample), std::to_string(vms),
                 Table::num(gb, 0), Table::num(truth.jct_s),
                 Table::num(est.jct_s), Table::pct(err)});
    }
  }
  fig6a.print();
  std::printf(
      "  mean error %.1f%% (sd %.1f%%) — paper: 10.8%% mean, 9.7%% sd\n",
      errors.mean() * 100, errors.stddev() * 100);

  harness::banner(
      "Figure 6(b): normalized JCT vs collocated CPU load (quad-core host; "
      "load as % of one core)");
  Table fig6b({"bg CPU (%)", "Sort", "PiEst"});
  const auto pi = workload::pi_est();
  const auto sort_small = workload::sort_job().with_input_gb(1.0);
  const double pi_alone = contended_jct(pi, 0, 0);
  const double sort_alone = contended_jct(sort_small, 0, 0);
  for (double pct : {0.0, 100.0, 200.0, 300.0, 500.0, 700.0, 900.0}) {
    const double cores = pct / 100.0;
    fig6b.row({Table::num(pct, 0),
               Table::num(contended_jct(sort_small, cores, 0) / sort_alone, 2),
               Table::num(contended_jct(pi, cores, 0) / pi_alone, 2)});
  }
  fig6b.print();

  harness::banner(
      "Figure 6(c): normalized JCT vs collocated I/O load (MB/s)");
  Table fig6c({"bg I/O (MB/s)", "Sort", "PiEst"});
  for (double mbps : {0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0}) {
    fig6c.row({Table::num(mbps, 0),
               Table::num(contended_jct(sort_small, 0, mbps) / sort_alone, 2),
               Table::num(contended_jct(pi, 0, mbps) / pi_alone, 2)});
  }
  fig6c.print();
  return 0;
}
