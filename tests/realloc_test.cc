// Tests for deferred/coalesced reallocation (realloc.h): burst coalescing,
// read-barrier freshness, eager/deferred determinism equivalence (eager
// mode, ReallocCoordinator::set_eager, is the simulator's one remaining
// reference switch), the reschedule-churn fix, the in-place fill,
// and the bounded TimeSeries machinery that keeps long runs O(max) memory.
#include <gtest/gtest.h>

#include <cstdint>
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

WorkloadPtr make_cpu_work(double cores, sim::Duration work) {
  Resources d;
  d.cpu = cores;
  return std::make_shared<Workload>(d, work);
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
// cancel + re-push its completion event (the profiler counts each skip).
TEST_F(ReallocTest, RescheduleSkipsUnchangedFinishTime) {
  telemetry::Hub hub;
  hub.profiler.enable();
  cluster.set_telemetry(&hub);
  auto skips = [&] {
    return hub.profiler.work(telemetry::WorkCounter::kRescheduleSkipped);
  };
  Machine* m = cluster.add_machine();

  // w1 finishes in 10s; the machine has capacity to spare.
  auto w1 = make_cpu_work(1.0, sim::Duration{10.0});
  m->add(w1);
  sim.flush();  // schedules w1's completion
  const std::uint64_t skips0 = skips();

  // Adding w2 recomputes the machine, but w1's share (and finish time) is
  // unchanged — the completion event must be left in place.
  auto w2 = make_cpu_work(1.0, sim::Duration{20.0});
  m->add(w2);
  sim.flush();
  EXPECT_GT(skips(), skips0);

  sim.run();
  EXPECT_NEAR(sim.now(), 20.0, 1e-6);
  cluster.set_telemetry(nullptr);  // the hub dies before the fixture
}

// A VM that reads a member's speed and grant in the window between the
// member's re-key and the reallocation the re-key marks: it re-keys without
// reallocating, so the host is still clean and the reads drain nothing.
class RekeyWindowVm : public VirtualMachine {
 public:
  using VirtualMachine::VirtualMachine;

  void rekey(Workload& member, bool reallocate) override {
    VirtualMachine::rekey(member, false);
    seen_speed = member.speed();
    seen_grant = member.allocated();
    if (reallocate) this->reallocate();
  }

  double seen_speed = -1;
  Resources seen_grant{-1, -1, -1, -1};
};

// A member settles at the rate it held. Installed at t1, it is re-keyed to
// another class at t2: until the drain at t2 it still holds its t1 grant
// and speed, and that drain credits [t1, t2) at the t1 speed.
TEST_F(ReallocTest, MemberSettlesAtTheRateItHeld) {
  Machine* m = cluster.add_machine();
  RekeyWindowVm vm(sim, "window", sim::CoreShare{2}, sim::MegaBytes{2048},
                   cluster.calibration());
  m->attach_vm(&vm);
  Resources d;
  d.cpu = 1.0;
  d.disk = 20;
  auto w = std::make_shared<Workload>(d, sim::Duration{100});
  sim.at(1.5, [&] { vm.add(w); });
  sim.run_until(1.5);
  sim.flush();
  const sim::SimTime t1 = sim.now();
  const double s1 = w->speed();
  const Resources g1 = w->allocated();
  ASSERT_GT(s1, 0.0);

  const sim::SimTime t2 = 4.0;
  sim.run_until(t2);
  ASSERT_TRUE(sim::same_time(sim.now(), t2));
  Resources cap = Resources::unbounded();
  cap.cpu = 0.5;  // below the demand: the member moves to a new class
  w->set_caps(cap);
  EXPECT_EQ(vm.seen_speed, s1);
  for (int r = 0; r < kNumResources; ++r) {
    const auto kind = static_cast<ResourceKind>(r);
    EXPECT_EQ(vm.seen_grant[kind], g1[kind]) << to_string(kind);
  }

  sim.flush();  // the drain at t2
  EXPECT_EQ(w->remaining().value(), 100.0 - (t2 - t1) * s1);
  EXPECT_LT(w->speed(), s1);
  m->detach_vm(&vm);  // the VM goes before the cluster
}

// A VM detached at t1 and re-attached at t2: in between its members read
// speed 0 and a zero grant, one re-keyed just before the detach too (the
// copy of its old grant it held expires), and make no progress.
TEST_F(ReallocTest, DetachedVmHoldsNothingAndMakesNoProgress) {
  Machine* m = cluster.add_machine();
  VirtualMachine* vm = cluster.add_vm(*m);
  Resources d;
  d.cpu = 0.5;
  d.disk = 10;
  auto steady = std::make_shared<Workload>(d, sim::Duration{100});
  auto rekeyed = std::make_shared<Workload>(d, sim::Duration{100});
  vm->add(steady);
  vm->add(rekeyed);
  sim.run_until(2.0);
  ASSERT_GT(rekeyed->speed(), 0.0);
  Resources cap = Resources::unbounded();
  cap.cpu = 0.25;
  rekeyed->set_caps(cap);
  m->detach_vm(vm);

  auto expect_stalled = [&](const char* when) {
    for (const WorkloadPtr& w : {steady, rekeyed}) {
      EXPECT_EQ(w->speed(), 0.0) << when;
      const Resources grant = w->allocated();
      for (int r = 0; r < kNumResources; ++r) {
        const auto kind = static_cast<ResourceKind>(r);
        EXPECT_EQ(grant[kind], 0.0) << when << " " << to_string(kind);
      }
    }
  };
  expect_stalled("at the detach");
  const double steady_left = steady->remaining().value();
  const double rekeyed_left = rekeyed->remaining().value();

  sim.at(5.0, [] {});
  sim.run_until(5.0);
  expect_stalled("while detached");
  m->attach_vm(vm);
  sim.flush();
  EXPECT_EQ(steady->remaining().value(), steady_left);
  EXPECT_EQ(rekeyed->remaining().value(), rekeyed_left);
  EXPECT_GT(steady->speed(), 0.0);
  EXPECT_GT(rekeyed->speed(), 0.0);
}

// --- determinism equivalence: deferred vs eager, same seed ---

struct ReportArtifacts {
  std::string json;
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
  std::ostringstream json, trace;
  report.to_json(json);
  if (bed.telemetry() != nullptr) bed.telemetry()->trace.to_jsonl(trace);
  out.json = json.str();
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
  EXPECT_EQ(deferred.trace, eager.trace);
}

// --- in-place fill ---

// A site's class table fills in place and is reused fill after fill; each
// resource's grants match the allocating one-resource call, whichever of
// the four resources the demands sit in.
TEST(WaterfillSpan, MatchesAllocatingVersion) {
  const std::vector<std::vector<double>> demand_sets = {
      {}, {1, 2, 3}, {1, 10, 10}, {5, 3, 8, 0.5}, {0, 0, 4}, {2.5}};
  DemandClasses classes;
  for (const auto& demands : demand_sets) {
    for (double capacity : {0.0, 1.0, 7.0, 100.0}) {
      const std::vector<double> expect = waterfill(capacity, demands);
      for (int r = 0; r < kNumResources; ++r) {
        const auto kind = static_cast<ResourceKind>(r);
        classes.rows.assign(demands.size(), {});
        classes.counts.assign(demands.size(), 1);
        for (std::size_t i = 0; i < demands.size(); ++i) {
          classes.rows[i].effective[kind] = demands[i];
          classes.rows[i].grant[kind] = -1;
        }
        Resources cap;
        cap[kind] = capacity;
        classes.fill(cap, {}, nullptr);
        for (std::size_t i = 0; i < demands.size(); ++i) {
          EXPECT_DOUBLE_EQ(classes.rows[i].grant[kind], expect[i])
              << "capacity " << capacity << " index " << i << " "
              << to_string(kind);
        }
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
  EXPECT_LE(bounded.samples().size(), 32u);
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
  ASSERT_EQ(s.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(s.back().value, 7.0);

  s.add_coalesced(2.0, 3.0);
  ASSERT_EQ(s.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(s.back().value, 3.0);
}

TEST(TimeSeriesBound, EnergyMeterHistoryIsBounded) {
  EnergyMeter meter;
  meter.set_max_samples(16);
  for (int i = 0; i < 1000; ++i) {
    meter.record(static_cast<double>(i), sim::Watts{180.0 + (i % 3)});
  }
  EXPECT_LE(meter.series().samples().size(), 16u);
  // Energy accounting stays consistent despite compaction: mean power of
  // a ~181 W trace must still be ~181 W.
  EXPECT_NEAR(meter.mean_watts(0, 999).value(), 181.0, 1.0);
}

}  // namespace
}  // namespace hybridmr::cluster
