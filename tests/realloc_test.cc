// Tests for deferred/coalesced reallocation (realloc.h): burst coalescing,
// read-barrier freshness, eager/deferred determinism equivalence (eager
// mode, ReallocCoordinator::set_eager, is the simulator's one remaining
// reference switch), the reschedule-churn fix, the span-based waterfill,
// and the bounded TimeSeries machinery that keeps long runs O(max) memory.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/machine.h"
#include "harness/testbed.h"
#include "sim/simulation.h"
#include "stats/timeseries.h"
#include "telemetry/telemetry.h"
#include "workload/benchmarks.h"

namespace hybridmr::cluster {
namespace {

WorkloadPtr make_cpu_work(double cores, sim::Duration work,
                          const std::string& name = "w") {
  Resources d;
  d.cpu = cores;
  return std::make_shared<Workload>(name, d, work);
}

class ReallocTest : public ::testing::Test {
 protected:
  sim::Simulation sim{1};
  HybridCluster cluster{sim};
};

// A k-mutation burst at one simulated instant triggers exactly one
// recompute, at the next flush, instead of k eager ones.
TEST_F(ReallocTest, BurstCoalescesToOneRecompute) {
  Machine* m = cluster.add_machine();
  const std::uint64_t c0 = m->recompute_count();

  std::vector<WorkloadPtr> work;
  for (int i = 0; i < 16; ++i) {
    work.push_back(make_cpu_work(0.5, Workload::kService));
    m->add(work.back());
  }
  EXPECT_EQ(m->recompute_count(), c0) << "mutations must defer";

  sim.flush();
  EXPECT_EQ(m->recompute_count(), c0 + 1)
      << "the whole burst must coalesce into one recompute";

  // A flush with no pending dirt must not recompute again.
  sim.flush();
  EXPECT_EQ(m->recompute_count(), c0 + 1);
}

// Reads of allocation-dependent state self-clean: no caller can observe
// the pre-mutation shares, flushed or not.
TEST_F(ReallocTest, ReadsAreNeverStale) {
  Machine* m = cluster.add_machine();
  const double cores = m->capacity().cpu;

  auto w = make_cpu_work(cores, Workload::kService);
  m->add(w);
  // No flush: utilization() / allocated() drain on demand.
  EXPECT_NEAR(m->utilization(ResourceKind::kCpu), 1.0, 1e-9);
  EXPECT_NEAR(w->allocated().cpu, cores, 1e-9);

  m->remove(w.get());
  EXPECT_NEAR(m->utilization(ResourceKind::kCpu), 0.0, 1e-9);
}

// Eager mode restores recompute-on-every-mutation.
TEST_F(ReallocTest, EagerModeRecomputesPerMutation) {
  cluster.reallocator().set_eager(true);
  Machine* m = cluster.add_machine();
  const std::uint64_t c0 = m->recompute_count();

  for (int i = 0; i < 4; ++i) m->add(make_cpu_work(0.25, Workload::kService));
  EXPECT_GE(m->recompute_count(), c0 + 4);
}

// A reallocation that leaves a workload's finish time unchanged must not
// cancel + re-push its completion event.
TEST_F(ReallocTest, RescheduleSkipsUnchangedFinishTime) {
  Machine* m = cluster.add_machine();

  // w1 finishes in 10s; the machine has capacity to spare.
  auto w1 = make_cpu_work(1.0, sim::Duration{10.0}, "w1");
  m->add(w1);
  sim.flush();  // schedules w1's completion
  const std::uint64_t skips0 = m->reschedule_skips();

  // Adding w2 recomputes the machine, but w1's share (and finish time) is
  // unchanged — the completion event must be left in place.
  auto w2 = make_cpu_work(1.0, sim::Duration{20.0}, "w2");
  m->add(w2);
  sim.flush();
  EXPECT_GT(m->reschedule_skips(), skips0);

  sim.run();
  EXPECT_NEAR(sim.now(), 20.0, 1e-6);
}

// --- determinism equivalence: deferred vs eager, same seed ---

struct ReportArtifacts {
  std::string json;
  std::string csv;
  std::string trace;
};

ReportArtifacts run_scenario(bool eager) {
  harness::TestBed::Options options;
  options.seed = 1234;
  harness::TestBed bed(options);
  bed.cluster().reallocator().set_eager(eager);
  bed.add_native_nodes(2);
  bed.add_virtual_nodes(2, 2);

  bed.run_jobs({workload::sort_job().with_input_gb(0.25),
                workload::wcount().with_input_gb(0.25)});

  ReportArtifacts out;
  const telemetry::RunReport report = bed.report();
  std::ostringstream json, csv, trace;
  report.to_json(json);
  report.to_csv(csv);
  if (bed.telemetry() != nullptr) bed.telemetry()->trace.to_jsonl(trace);
  out.json = json.str();
  out.csv = csv.str();
  out.trace = trace.str();
  return out;
}

// The report's event-queue mechanics counters (events scheduled/cancelled,
// fan-out, flush-scheduled) differ between the two modes BY DESIGN — fewer
// reschedules is the whole point of deferred coalescing — so they are
// stripped before the byte-for-byte comparison of the simulated outcome.
std::string strip_queue_mechanics(const std::string& json) {
  static const char* kModeDependent[] = {
      "\"events_scheduled\"", "\"events_cancelled\"", "\"events_deferred\"",
      "\"max_queue_depth\"",  "\"max_event_fanout\"",
      "\"flush_scheduled_events\""};
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    bool drop = false;
    for (const char* key : kModeDependent) {
      if (line.find(key) != std::string::npos) drop = true;
    }
    if (!drop) out << line << '\n';
  }
  return out.str();
}

TEST(ReallocDeterminism, DeferredMatchesEagerByteForByte) {
  const ReportArtifacts deferred = run_scenario(/*eager=*/false);
  const ReportArtifacts eager = run_scenario(/*eager=*/true);
  EXPECT_EQ(strip_queue_mechanics(deferred.json),
            strip_queue_mechanics(eager.json));
  EXPECT_EQ(deferred.csv, eager.csv);
  EXPECT_EQ(deferred.trace, eager.trace);
}

// --- span-based waterfill ---

TEST(WaterfillSpan, MatchesAllocatingVersion) {
  const std::vector<std::vector<double>> demand_sets = {
      {}, {1, 2, 3}, {1, 10, 10}, {5, 3, 8, 0.5}, {0, 0, 4}, {2.5}};
  WaterfillScratch scratch;
  for (const auto& demands : demand_sets) {
    for (double capacity : {0.0, 1.0, 7.0, 100.0}) {
      const std::vector<double> expect = waterfill(capacity, demands);
      std::vector<double> got(demands.size(), -1);
      waterfill_into(capacity, demands, got, scratch);
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_DOUBLE_EQ(got[i], expect[i])
            << "capacity " << capacity << " index " << i;
      }
    }
  }
}

// --- bounded time series ---

TEST(TimeSeriesBound, CompactionBoundsMemoryAndPreservesIntegral) {
  stats::TimeSeries full;
  stats::TimeSeries bounded;
  bounded.set_max_samples(32);

  for (int i = 0; i < 4096; ++i) {
    const double t = i;
    const double v = (i % 7) * 1.5;
    full.add(t, v);
    bounded.add(t, v);
  }
  EXPECT_LE(bounded.size(), 32u);
  // The step-function integral is preserved exactly by pairwise
  // time-weighted merging.
  EXPECT_NEAR(bounded.integrate(0, 4095), full.integrate(0, 4095), 1e-6);
  // The most recent sample is never merged: current readings stay exact.
  EXPECT_DOUBLE_EQ(bounded.back().time, full.back().time);
  EXPECT_DOUBLE_EQ(bounded.back().value, full.back().value);
  EXPECT_DOUBLE_EQ(bounded.value_at(4095), full.value_at(4095));
}

TEST(TimeSeriesBound, AddCoalescedOverwritesSameInstant) {
  stats::TimeSeries s;
  s.add(1.0, 5.0);
  s.add_coalesced(1.0, 7.0);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.back().value, 7.0);

  s.add_coalesced(2.0, 3.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.back().value, 3.0);
}

TEST(TimeSeriesBound, EnergyMeterHistoryIsBounded) {
  EnergyMeter meter;
  meter.set_max_samples(16);
  for (int i = 0; i < 1000; ++i) {
    meter.record(static_cast<double>(i), sim::Watts{180.0 + (i % 3)});
  }
  EXPECT_LE(meter.series().size(), 16u);
  // Energy accounting stays consistent despite compaction: mean power of
  // a ~181 W trace must still be ~181 W.
  EXPECT_NEAR(meter.mean_watts(0, 999).value(), 181.0, 1.0);
}

}  // namespace
}  // namespace hybridmr::cluster
