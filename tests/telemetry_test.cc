#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hybridmr.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"
#include "workload/benchmarks.h"

namespace hybridmr {
namespace {

// --- trace recorder ---

TEST(TraceRecorder, ExportsJsonlAndChrome) {
  telemetry::TraceRecorder trace;
  trace.instant(1.5, telemetry::EventKind::kJobSubmit, "sort-j0", "jobs",
                {{"maps", "8"}});
  trace.complete(1.5, 2.0, telemetry::EventKind::kTaskFinish, "sort-j0-m0",
                 "native-0");
  ASSERT_EQ(trace.size(), 2u);

  std::ostringstream jsonl;
  trace.to_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("job_submit"), std::string::npos);
  EXPECT_NE(jsonl.str().find("sort-j0-m0"), std::string::npos);

  std::ostringstream chrome;
  trace.to_chrome(chrome);
  const std::string json = chrome.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

// --- sim plumbing the telemetry rides on ---

// Under HYBRIDMR_AUDIT a past-time at() is a hard violation instead of a
// clamp; the abort path is covered by audit_test.cc.
#if !defined(HYBRIDMR_AUDIT_ENABLED)
TEST(SimulationClamp, PastEventIsCountedAndStillFires) {
  sim::Simulation sim;
  sim.after(10, [] {});
  sim.run();
  EXPECT_EQ(sim.clamped_past_events(), 0u);
  bool fired = false;
  sim.at(5.0, [&] { fired = true; });  // now() is 10: in the past
  EXPECT_EQ(sim.clamped_past_events(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

#endif  // !HYBRIDMR_AUDIT_ENABLED

// --- end-to-end: TestBed wiring, run reports, determinism ---

struct RunArtifacts {
  std::string trace_jsonl;
  std::string report_json;
  int jobs_submitted = 0;
};

RunArtifacts run_scenario(std::uint64_t seed) {
  harness::TestBed::Options options;
  options.seed = seed;
  harness::TestBed bed(options);
  bed.add_native_nodes(2);
  bed.add_virtual_nodes(2, 2);

  core::HybridMROptions hopts;
  hopts.phase1.training_cluster_sizes = {2};
  core::HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(),
                                 bed.mr(), hopts);
  hybrid.set_telemetry(bed.telemetry());
  hybrid.start();
  hybrid.deploy_interactive(interactive::rubis_params(), 200);

  std::vector<mapred::Job*> jobs;
  jobs.push_back(hybrid.submit(workload::sort_job().with_input_gb(0.5)));
  jobs.push_back(hybrid.submit(workload::wcount().with_input_gb(0.5)));
  while (true) {
    bool done = true;
    for (auto* j : jobs) done = done && j->finished();
    if (done) break;
    bed.sim().run_until(bed.sim().now() + 60);
  }
  hybrid.stop();

  RunArtifacts out;
  out.jobs_submitted = static_cast<int>(jobs.size());
  if (bed.telemetry() != nullptr) {
    std::vector<const interactive::InteractiveApp*> apps;
    for (const auto& app : hybrid.apps()) apps.push_back(app.get());
    const telemetry::RunReport report = bed.report(apps);
    std::ostringstream trace, json;
    bed.telemetry()->trace.to_jsonl(trace);
    report.to_json(json);
    out.trace_jsonl = trace.str();
    out.report_json = json.str();
  }
  return out;
}

TEST(TestBedTelemetry, ReportContainsEverySubmittedJob) {
  harness::TestBed bed;
  bed.add_native_nodes(3);
  const std::vector<mapred::JobSpec> specs = {
      workload::sort_job().with_input_gb(0.5),
      workload::wcount().with_input_gb(0.5),
      workload::pi_est().with_input_gb(0.1)};
  bed.run_jobs(specs);

  const telemetry::RunReport report = bed.report();
  ASSERT_EQ(report.jobs.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.jobs[i].name, specs[i].name);
    EXPECT_EQ(report.jobs[i].state, "done");
    EXPECT_GT(report.jobs[i].jct_s, 0);
  }
  EXPECT_EQ(report.machines.size(), 3u);
  EXPECT_GT(report.sim_end_s, 0);
  EXPECT_EQ(report.clamped_past_events, 0u);

  std::ostringstream json;
  report.to_json(json);
  for (const auto& spec : specs) {
    EXPECT_NE(json.str().find("\"" + spec.name + "\""), std::string::npos);
  }
}

TEST(TestBedTelemetry, HubRecordsEngineAndMachineMetrics) {
  harness::TestBed bed;
  bed.add_native_nodes(2);
  bed.run_job(workload::wcount().with_input_gb(0.5));

  // The engine's facts are trace events (one submit, one finish per task,
  // one job finish); a machine's utilization is its own series.
  ASSERT_NE(bed.telemetry(), nullptr);
  ASSERT_EQ(bed.mr().jobs().size(), 1u);
  const mapred::Job& job = *bed.mr().jobs()[0];
  std::size_t submits = 0;
  std::size_t task_finishes = 0;
  std::size_t job_finishes = 0;
  for (const auto& e : bed.telemetry()->trace.events()) {
    if (e.kind == telemetry::EventKind::kJobSubmit) ++submits;
    if (e.kind == telemetry::EventKind::kTaskFinish) ++task_finishes;
    if (e.kind == telemetry::EventKind::kJobFinish) ++job_finishes;
  }
  EXPECT_EQ(submits, 1u);
  EXPECT_EQ(task_finishes, job.maps().size() + job.reduces().size());
  EXPECT_EQ(job_finishes, 1u);
  EXPECT_GT(bed.cluster().machines()[0]->samples().size(), 0u);
}

TEST(TestBedTelemetry, OptOutLeavesHubNull) {
  harness::TestBed::Options options;
  options.telemetry = false;
  harness::TestBed bed(options);
  bed.add_native_nodes(1);
  EXPECT_EQ(bed.telemetry(), nullptr);
  bed.run_job(workload::pi_est().with_input_gb(0.1));
  // report() still works without a hub.
  const telemetry::RunReport report = bed.report();
  EXPECT_EQ(report.jobs.size(), 1u);
}

TEST(TestBedTelemetry, SameSeedRunsProduceIdenticalArtifacts) {
  const RunArtifacts first = run_scenario(7);
  const RunArtifacts second = run_scenario(7);
  EXPECT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);
  EXPECT_EQ(first.report_json, second.report_json);
}

// Where the scheduler put an interactive app is a Phase I decision, so the
// trace holds it beside the batch placements: one record per app, on the
// jobs track, naming the pool, the site and the client count.
TEST(TestBedTelemetry, InteractivePlacementIsTraced) {
  harness::TestBed bed;
  bed.add_native_nodes(1);
  bed.add_virtual_nodes(1, 2);
  core::HybridMROptions hopts;
  hopts.phase1.training_cluster_sizes = {2};
  core::HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(),
                                 bed.mr(), hopts);
  hybrid.set_telemetry(bed.telemetry());
  ASSERT_NE(bed.telemetry(), nullptr);

  auto& picked = hybrid.deploy_interactive(interactive::rubis_params(), 300);
  cluster::Machine& native = *bed.cluster().machines().front();
  ASSERT_FALSE(native.is_virtual());
  hybrid.deploy_interactive(interactive::tpcw_params(), 50, &native);

  std::vector<const telemetry::TraceEvent*> placements;
  for (const auto& e : bed.telemetry()->trace.events()) {
    if (e.kind == telemetry::EventKind::kPhase1Placement) {
      placements.push_back(&e);
    }
  }
  using Args = telemetry::TraceRecorder::Args;
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[0]->name, interactive::rubis_params().name);
  EXPECT_EQ(placements[0]->track, "jobs");
  EXPECT_EQ(placements[0]->args,
            (Args{{"pool", "virtual"},
                  {"site", picked.site().name()},
                  {"clients", "300"}}));
  EXPECT_EQ(placements[1]->name, interactive::tpcw_params().name);
  EXPECT_EQ(placements[1]->args, (Args{{"pool", "native"},
                                       {"site", native.name()},
                                       {"clients", "50"}}));
  hybrid.stop();
}

// HYBRIDMR_PROFILE takes 1/on or 0/off; anything else must not quietly
// leave a run unprofiled.
TEST(TestBedTelemetry, UnknownProfileValueThrows) {
  std::optional<std::string> saved;
  if (const char* prior = std::getenv("HYBRIDMR_PROFILE")) saved = prior;
  ::setenv("HYBRIDMR_PROFILE", "yes", 1);
  bool threw = false;
  try {
    harness::TestBed bed;
  } catch (const std::invalid_argument& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("HYBRIDMR_PROFILE"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("yes"), std::string::npos);
  }
  if (saved) {
    ::setenv("HYBRIDMR_PROFILE", saved->c_str(), 1);
  } else {
    ::unsetenv("HYBRIDMR_PROFILE");
  }
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace hybridmr
