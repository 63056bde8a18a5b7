// Tests for the simulation profiler (src/telemetry/profiler.h): histogram
// percentile math at the edges, calling-context-tree nesting, work-counter
// determinism across same-seed runs, event-conservation of the queue
// counters, the always-on RunReport fields, and the stall watchdog.
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "sim/simulation.h"
#include "telemetry/profiler.h"
#include "telemetry/report.h"
#include "workload/benchmarks.h"

namespace hybridmr {
namespace {

// --- LogHistogram ------------------------------------------------------------

TEST(LogHistogram, EmptyReportsZeros) {
  telemetry::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0);
}

TEST(LogHistogram, SingleSampleReportsItselfAtEveryPercentile) {
  telemetry::LogHistogram h;
  h.record(37);
  for (double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 37) << "p=" << p;
  }
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
  EXPECT_DOUBLE_EQ(h.mean(), 37);
}

TEST(LogHistogram, ZeroLandsInBucketZero) {
  telemetry::LogHistogram h;
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.max(), 0u);
}

TEST(LogHistogram, PowerOfTwoBucketEdges) {
  telemetry::LogHistogram h;
  // Bucket b >= 1 holds [2^(b-1), 2^b): 1 -> bucket 1, 2..3 -> bucket 2,
  // 4..7 -> bucket 3.
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(7);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 2u);
}

TEST(LogHistogram, OverflowValuesLandInTheLastBucket) {
  telemetry::LogHistogram h;
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max();
  h.record(huge);
  h.record(huge - 1);
  EXPECT_EQ(h.buckets()[telemetry::LogHistogram::kBuckets - 1], 2u);
  EXPECT_EQ(h.max(), huge);
  // Percentiles clamp to the observed max, not the 2^64 bucket edge.
  EXPECT_LE(h.percentile(99), static_cast<double>(huge));
  EXPECT_GE(h.percentile(1), static_cast<double>(huge - 1));
}

TEST(LogHistogram, PercentilesAreMonotoneAndClamped) {
  telemetry::LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  double prev = h.percentile(0);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    const double value = h.percentile(p);
    EXPECT_GE(value, prev) << "p=" << p;
    EXPECT_GE(value, 1.0);
    EXPECT_LE(value, 1000.0);
    prev = value;
  }
  // The median of 1..1000 must land in the right ballpark despite the
  // coarse power-of-two buckets (bucket [512,1024) starts at 512).
  EXPECT_GT(h.percentile(50), 250.0);
  EXPECT_LT(h.percentile(50), 1000.0);
}

// --- Profiler scopes and the calling-context tree ---------------------------

TEST(Profiler, DisabledRecordsNothing) {
  telemetry::Profiler prof;  // enabled() is false by default
  prof.add(telemetry::WorkCounter::kDrainPasses);
  prof.record_dist(telemetry::WorkDist::kQueueDepth, 5);
  const telemetry::ScopeId s = prof.intern("test.scope");
  { telemetry::Scope guard(&prof, s); }
  EXPECT_EQ(prof.work(telemetry::WorkCounter::kDrainPasses), 0u);
  EXPECT_EQ(prof.dist(telemetry::WorkDist::kQueueDepth).count(), 0u);
  EXPECT_EQ(prof.wall_stats()[s.index].count, 0u);
}

TEST(Profiler, NullProfilerScopeIsSafe) {
  telemetry::Scope guard(nullptr, telemetry::ScopeId{});
  // Destructor must be a no-op; reaching the end of scope is the test.
  SUCCEED();
}

TEST(Profiler, InternIsIdempotent) {
  telemetry::Profiler prof;
  const telemetry::ScopeId a = prof.intern("x");
  const telemetry::ScopeId b = prof.intern("x");
  EXPECT_EQ(a.index, b.index);
  EXPECT_NE(prof.intern("y").index, a.index);
}

TEST(Profiler, ContextTreeTracksNesting) {
  telemetry::Profiler prof;
  prof.enable();
  const telemetry::ScopeId outer = prof.intern("outer");
  const telemetry::ScopeId inner = prof.intern("inner");
  {
    telemetry::Scope a(&prof, outer);
    { telemetry::Scope b(&prof, inner); }
    { telemetry::Scope c(&prof, inner); }
  }
  { telemetry::Scope d(&prof, inner); }  // inner at the root: a new node

  // Root (node 0) + outer + outer>inner + inner = 4 nodes.
  ASSERT_EQ(prof.nodes().size(), 4u);
  const auto& nodes = prof.nodes();
  // Node 1: outer under the root.
  EXPECT_EQ(nodes[1].parent, 0u);
  EXPECT_EQ(nodes[1].scope, outer.index);
  EXPECT_EQ(nodes[1].count, 1u);
  // Node 2: inner under outer, entered twice.
  EXPECT_EQ(nodes[2].parent, 1u);
  EXPECT_EQ(nodes[2].scope, inner.index);
  EXPECT_EQ(nodes[2].count, 2u);
  // Node 3: inner directly under the root.
  EXPECT_EQ(nodes[3].parent, 0u);
  EXPECT_EQ(nodes[3].scope, inner.index);
  EXPECT_EQ(nodes[3].count, 1u);
  // Flat per-scope stats see all three inner invocations.
  EXPECT_EQ(prof.wall_stats()[inner.index].count, 3u);
  EXPECT_EQ(prof.wall_stats()[outer.index].count, 1u);
}

TEST(Profiler, WorkJsonHasNoWallFields) {
  telemetry::Profiler prof;
  prof.enable();
  prof.add(telemetry::WorkCounter::kDrainPasses, 3);
  std::ostringstream os;
  prof.work_to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"drain_passes\":3"), std::string::npos);
  EXPECT_EQ(json.find("_ns"), std::string::npos);
  EXPECT_EQ(json.find("_us"), std::string::npos);
  EXPECT_EQ(json.find("_ms"), std::string::npos);
  EXPECT_EQ(json.find("wall"), std::string::npos);
}

// --- End-to-end: same-seed determinism and conservation ----------------------

struct ProfiledRun {
  std::string work_json;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t processed = 0;
  std::size_t live = 0;
  std::string report_json;
};

ProfiledRun run_profiled(std::uint64_t seed) {
  harness::TestBed::Options opt;
  opt.seed = seed;
  opt.profile = true;
  harness::TestBed bed(opt);
  bed.add_native_nodes(2);
  bed.add_virtual_nodes(2, 2);
  bed.run_jobs({workload::sort_job().with_input_gb(0.25),
                workload::wcount().with_input_gb(0.25)});

  ProfiledRun out;
  telemetry::Profiler* prof = bed.profiler();
  if (prof != nullptr) {
    std::ostringstream os;
    prof->work_to_json(os);
    out.work_json = os.str();
  }
  out.scheduled = bed.sim().events_scheduled();
  out.cancelled = bed.sim().events_cancelled();
  out.processed = bed.sim().events_processed();
  out.live = bed.sim().pending_events();
  std::ostringstream report;
  bed.report().to_json(report);
  out.report_json = report.str();
  return out;
}

TEST(ProfilerDeterminism, SameSeedSameWorkCounters) {
  const ProfiledRun a = run_profiled(99);
  const ProfiledRun b = run_profiled(99);
  EXPECT_EQ(a.work_json, b.work_json);
  EXPECT_EQ(a.report_json, b.report_json);
  // And a different seed genuinely changes the work profile (guards
  // against the counters being dead constants).
  const ProfiledRun c = run_profiled(100);
  EXPECT_NE(a.report_json, c.report_json);
}

TEST(ProfilerDeterminism, EventCountersConserve) {
  const ProfiledRun a = run_profiled(7);
  // Every event ever scheduled was processed, cancelled, or is still live.
  EXPECT_EQ(a.scheduled, a.processed + a.cancelled + a.live);
  EXPECT_GT(a.scheduled, 0u);
}

TEST(ProfilerDeterminism, ReportCarriesQueueMechanicsWithProfilerOff) {
  // The always-on RunReport fields need no profiler at all.
  harness::TestBed bed;  // default options: telemetry on, profile off
  bed.add_native_nodes(2);
  bed.run_job(workload::wcount().with_input_gb(0.125));
  EXPECT_EQ(bed.profiler(), nullptr);
  std::ostringstream os;
  bed.report().to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"events_scheduled\":"), std::string::npos);
  EXPECT_NE(json.find("\"events_cancelled\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_queue_depth\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_event_fanout\":"), std::string::npos);
  EXPECT_NE(json.find("\"flush_scheduled_events\":"), std::string::npos);
  // ...and the profile section only appears when profiling is live.
  EXPECT_EQ(json.find("\"profile\":"), std::string::npos);
}

TEST(ProfilerDeterminism, RecomputeCauseCountersSumToRecomputes) {
  harness::TestBed::Options opt;
  opt.profile = true;
  harness::TestBed bed(opt);
  bed.add_virtual_nodes(2, 2);
  bed.run_job(workload::sort_job().with_input_gb(0.25));
  telemetry::Profiler* prof = bed.profiler();
  ASSERT_NE(prof, nullptr);
  using WC = telemetry::WorkCounter;
  const std::uint64_t by_cause =
      prof->work(WC::kRecomputeDirect) + prof->work(WC::kRecomputeDrain) +
      prof->work(WC::kRecomputeReadBarrier) + prof->work(WC::kRecomputeEager);
  // The recompute scope is entered exactly once per recompute() call, so
  // the per-cause split must account for every invocation.
  const telemetry::ScopeId scope = prof->intern("cluster.machine.recompute");
  EXPECT_EQ(by_cause, prof->wall_stats()[scope.index].count);
  EXPECT_GT(by_cause, 0u);
}

// --- Watchdog ----------------------------------------------------------------

TEST(Watchdog, SameTimeLivelockStallsTheRun) {
  sim::Simulation sim(1);
  telemetry::Profiler prof;
  prof.enable();
  prof.set_simulation(&sim);
  std::ostringstream log;
  telemetry::Profiler::WatchdogOptions wd;
  wd.max_same_time_events = 100;
  prof.set_watchdog(wd, &log);
  sim.set_probe(&prof);

  // A self-rescheduling zero-delay event: the classic stuck-clock livelock.
  std::function<void()> spin = [&] { sim.after(0.0, [&] { spin(); }); };
  sim.after(0.0, spin);
  sim.run();

  EXPECT_TRUE(prof.stalled());
  EXPECT_NE(prof.stall_reason().find("livelock"), std::string::npos);
  EXPECT_NE(log.str().find("STALL"), std::string::npos);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Watchdog, HealthyRunDoesNotStall) {
  harness::TestBed::Options opt;
  opt.profile = true;
  opt.watchdog.max_same_time_events = 100000;
  opt.watchdog.wall_budget_s = 3600;
  harness::TestBed bed(opt);
  bed.add_native_nodes(2);
  bed.run_job(workload::wcount().with_input_gb(0.125));
  ASSERT_NE(bed.profiler(), nullptr);
  EXPECT_FALSE(bed.profiler()->stalled());
}

}  // namespace
}  // namespace hybridmr
