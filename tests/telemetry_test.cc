#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/hybridmr.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "sim/log.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"
#include "workload/benchmarks.h"

namespace hybridmr {
namespace {

// --- metrics primitives ---

TEST(Counter, AccumulatesValueAndEvents) {
  telemetry::Counter c;
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_EQ(c.events(), 2u);
}

TEST(Gauge, LastWriteWins) {
  telemetry::Gauge g;
  g.set(7);
  g.add(-2);
  EXPECT_DOUBLE_EQ(g.value(), 5);
}

TEST(Histogram, PercentilesOfUniformDistribution) {
  telemetry::Histogram h(0, 100);
  // 0.5, 1.5, ..., 99.5: a uniform fill, one value per unit.
  for (int i = 0; i < 100; ++i) h.record(i + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 99.5);
  EXPECT_NEAR(h.mean(), 50.0, 1e-9);
  // Bucket width is 100/64 ~ 1.56, so percentiles are accurate to about
  // one bucket.
  EXPECT_NEAR(h.percentile(50), 50.0, 2.0);
  EXPECT_NEAR(h.percentile(95), 95.0, 2.0);
  EXPECT_NEAR(h.percentile(99), 99.0, 2.0);
  EXPECT_LE(h.percentile(0), h.percentile(100));
}

TEST(Histogram, OutOfRangeValuesClampToEdgeBuckets) {
  telemetry::Histogram h(0, 10);
  h.record(-5);
  h.record(25);
  EXPECT_EQ(h.count(), 2u);
  // True extremes survive even though the samples land in edge buckets.
  EXPECT_DOUBLE_EQ(h.min(), -5);
  EXPECT_DOUBLE_EQ(h.max(), 25);
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(TimeSeriesMetric, WindowBoundariesAreAligned) {
  telemetry::TimeSeriesMetric ts(5.0);
  ts.sample(0.0, 1);
  ts.sample(4.999, 3);  // still the [0, 5) window
  ts.sample(5.0, 10);   // exactly on the edge -> opens [5, 10)
  ts.sample(12.0, 20);  // skips a window entirely
  const auto windows = ts.windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows[0].start, 0.0);
  EXPECT_EQ(windows[0].count, 2u);
  EXPECT_DOUBLE_EQ(windows[0].mean(), 2.0);
  EXPECT_DOUBLE_EQ(windows[0].min, 1.0);
  EXPECT_DOUBLE_EQ(windows[0].max, 3.0);
  EXPECT_DOUBLE_EQ(windows[1].start, 5.0);
  EXPECT_EQ(windows[1].count, 1u);
  EXPECT_DOUBLE_EQ(windows[2].start, 10.0);
  EXPECT_DOUBLE_EQ(windows[2].mean(), 20.0);
  EXPECT_EQ(ts.count(), 4u);
}

TEST(TimeSeriesMetric, CoalescedSamplesKeepTheLastPerInstant) {
  telemetry::TimeSeriesMetric ts(1.0);
  ts.sample_coalesced(1.0, 4);
  ts.sample_coalesced(1.0, 6);  // revises the t=1 sample
  // A read before t=2 counts the held sample, once.
  EXPECT_EQ(ts.count(), 1u);
  EXPECT_DOUBLE_EQ(ts.mean(), 6.0);
  ASSERT_EQ(ts.windows().size(), 1u);
  EXPECT_EQ(ts.windows()[0].count, 1u);
  EXPECT_DOUBLE_EQ(ts.windows()[0].mean(), 6.0);

  ts.sample_coalesced(2.0, 10);
  auto windows = ts.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].start, 1.0);
  EXPECT_EQ(windows[0].count, 1u);
  EXPECT_DOUBLE_EQ(windows[0].min, 6.0);
  EXPECT_DOUBLE_EQ(windows[0].max, 6.0);
  EXPECT_DOUBLE_EQ(windows[1].start, 2.0);
  EXPECT_EQ(windows[1].count, 1u);
  EXPECT_DOUBLE_EQ(windows[1].mean(), 10.0);
  EXPECT_EQ(ts.count(), 2u);
  EXPECT_DOUBLE_EQ(ts.mean(), 8.0);

  // A held sample in the open window folds into it on read.
  ts.sample_coalesced(2.5, 12);
  windows = ts.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[1].count, 2u);
  EXPECT_DOUBLE_EQ(windows[1].mean(), 11.0);
  EXPECT_DOUBLE_EQ(windows[1].max, 12.0);
  EXPECT_EQ(ts.count(), 3u);
}

TEST(Registry, FetchOrCreateReturnsSameMetric) {
  telemetry::Registry reg;
  telemetry::Counter& a = reg.counter("x.events", "ops");
  telemetry::Counter& b = reg.counter("x.events");
  EXPECT_EQ(&a, &b);
  reg.gauge("x.level");
  reg.histogram("x.latency", 0, 10, "s");
  ASSERT_EQ(reg.entries().size(), 3u);
  // Insertion order is preserved, so exports are deterministic.
  EXPECT_EQ(reg.entries()[0]->name, "x.events");
  EXPECT_EQ(reg.entries()[1]->name, "x.level");
  EXPECT_EQ(reg.entries()[2]->name, "x.latency");
  const telemetry::Registry::Entry* found = reg.find("x.level");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->type, telemetry::Registry::Type::kGauge);
  EXPECT_EQ(reg.find("missing"), nullptr);
}

TEST(Registry, JsonExportIsWellFormed) {
  telemetry::Registry reg;
  reg.counter("jobs", "").add(4);
  std::ostringstream os;
  reg.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"jobs\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":4"), std::string::npos);
}

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

TEST(LogSink, CapturesClampWarning) {
  std::vector<std::string> lines;
  sim::Log::set_sink([&](sim::LogLevel, sim::SimTime now,
                         const std::string& tag, const std::string& msg) {
    lines.push_back(sim::Log::format(sim::LogLevel::kWarn, now, tag, msg));
  });
  const sim::LogLevel saved = sim::Log::threshold();
  sim::Log::threshold() = sim::LogLevel::kWarn;

  sim::Simulation sim;
  sim.after(3, [] {});
  sim.run();
  sim.at(1.0, [] {});

  sim::Log::threshold() = saved;
  sim::Log::set_sink({});

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("clamped"), std::string::npos);
  EXPECT_NE(lines[0].find("sim"), std::string::npos);
}
#endif  // !HYBRIDMR_AUDIT_ENABLED

// --- end-to-end: TestBed wiring, run reports, determinism ---

struct RunArtifacts {
  std::string trace_jsonl;
  std::string report_json;
  std::string report_csv;
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
    std::ostringstream trace, json, csv;
    bed.telemetry()->trace.to_jsonl(trace);
    report.to_json(json);
    report.to_csv(csv);
    out.trace_jsonl = trace.str();
    out.report_json = json.str();
    out.report_csv = csv.str();
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

  ASSERT_NE(bed.telemetry(), nullptr);
  const telemetry::Registry& reg = bed.telemetry()->registry;
  const auto* submitted = reg.find("mapred.jobs_submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_DOUBLE_EQ(submitted->counter->value(), 1);
  const auto* finished = reg.find("mapred.tasks_finished");
  ASSERT_NE(finished, nullptr);
  EXPECT_GT(finished->counter->value(), 0);
  const auto* cpu = reg.find("machine.native0.cpu_util");
  ASSERT_NE(cpu, nullptr);
  EXPECT_GT(cpu->series->count(), 0u);
  EXPECT_GT(bed.telemetry()->trace.size(), 0u);
}

TEST(TestBedTelemetry, OptOutLeavesHubNull) {
  harness::TestBed::Options options;
  options.telemetry = false;
  harness::TestBed bed(options);
  bed.add_native_nodes(1);
  EXPECT_EQ(bed.telemetry(), nullptr);
  bed.run_job(workload::pi_est().with_input_gb(0.1));
  // report() still works without a hub; it just has no metrics block.
  const telemetry::RunReport report = bed.report();
  EXPECT_EQ(report.registry, nullptr);
  EXPECT_EQ(report.jobs.size(), 1u);
}

TEST(TestBedTelemetry, SameSeedRunsProduceIdenticalArtifacts) {
  const RunArtifacts first = run_scenario(7);
  const RunArtifacts second = run_scenario(7);
  EXPECT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);
  EXPECT_EQ(first.report_json, second.report_json);
  EXPECT_EQ(first.report_csv, second.report_csv);
}

}  // namespace
}  // namespace hybridmr
