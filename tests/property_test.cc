// Property-based tests: invariants that must hold across parameter sweeps
// (TEST_P / INSTANTIATE_TEST_SUITE_P), not just at hand-picked points.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/machine.h"
#include "cluster/migration.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "sim/event_queue.h"
#include "stats/regression.h"
#include "workload/benchmarks.h"

namespace hybridmr {
namespace {

using cluster::Resources;
using cluster::Workload;
using harness::TestBed;

// ------------------------------------------------------- waterfill laws ----

class WaterfillProperty : public ::testing::TestWithParam<int> {};

TEST_P(WaterfillProperty, ConservationAndFairness) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const int n = rng.uniform_int(1, 12);
    std::vector<double> demands(n);
    for (auto& d : demands) d = rng.uniform(0, 10);
    const double capacity = rng.uniform(0.1, 25);
    const auto alloc = cluster::waterfill(capacity, demands);

    double total = 0;
    double min_unsat = 1e300;
    double max_unsat = 0;
    for (int i = 0; i < n; ++i) {
      // Never allocate more than demanded.
      EXPECT_LE(alloc[i], demands[i] + 1e-9);
      EXPECT_GE(alloc[i], -1e-12);
      total += alloc[i];
      if (alloc[i] < demands[i] - 1e-9) {
        min_unsat = std::min(min_unsat, alloc[i]);
        max_unsat = std::max(max_unsat, alloc[i]);
      }
    }
    // Never exceed capacity.
    EXPECT_LE(total, capacity + 1e-9);
    // Work conservation: either everyone is satisfied or capacity is used.
    double demand_total = 0;
    for (double d : demands) demand_total += d;
    if (demand_total > capacity + 1e-9) {
      EXPECT_NEAR(total, capacity, 1e-9);
      // Max-min: all unsatisfied consumers get the same share.
      if (max_unsat > 0) {
        EXPECT_NEAR(min_unsat, max_unsat, 1e-9);
      }
    } else {
      EXPECT_NEAR(total, demand_total, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterfillProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------- event-queue seats ----

// The reschedule contract: EventQueue::defer() moves an event but keeps the
// seq it was created with, so same-time ties pop in creation order however
// often (and in whatever coalescing regime) an event was moved. The model
// is that contract stated directly: a set ordered by (time, creation seq).
// Random push / defer (earlier, later, to +inf) / cancel / pop sequences
// over a few integer times make ties common; every pop must be the model's
// head, and ids that fired or were cancelled must be rejected.
class EventQueueProperty : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueProperty, DeferMatchesOrderedSeatModel) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  sim::Rng rng(GetParam());
  sim::EventQueue q;
  std::set<std::pair<sim::SimTime, std::size_t>> model;  // (time, seq)
  std::vector<sim::EventId> ids;                         // by creation seq
  std::vector<std::optional<sim::SimTime>> seat_of;      // nullopt: dead
  std::size_t fired = 0;
  std::uint64_t deferred = 0;
  std::uint64_t cancelled = 0;

  auto pop_and_check = [&] {
    auto e = q.pop();
    ASSERT_EQ(e.has_value(), !model.empty());
    if (!e) return;
    e->fn();
    const auto [time, seq] = *model.begin();
    model.erase(model.begin());
    seat_of[seq].reset();
    EXPECT_EQ(fired, seq) << "tie order must follow creation order";
    EXPECT_EQ(e->time, time);
    EXPECT_TRUE(e->id == ids[seq]);
  };

  for (int step = 0; step < 4000; ++step) {
    const int op = ids.empty() ? 0 : rng.uniform_int(0, 99);
    const sim::SimTime t =
        rng.bernoulli(0.1) ? kInf : static_cast<double>(rng.uniform_int(0, 4));
    if (op < 30) {
      const std::size_t seq = ids.size();
      ids.push_back(q.push(t, [&fired, seq] { fired = seq; }));
      seat_of.emplace_back(t);
      model.emplace(t, seq);
    } else if (op < 65) {
      const std::size_t seq = rng.index(ids.size());
      const bool live = seat_of[seq].has_value();
      ASSERT_EQ(q.defer(ids[seq], t), live) << "step " << step;
      if (live) {
        model.erase({*seat_of[seq], seq});
        model.emplace(t, seq);
        seat_of[seq] = t;
        ++deferred;
      }
    } else if (op < 75) {
      const std::size_t seq = rng.index(ids.size());
      const bool live = seat_of[seq].has_value();
      ASSERT_EQ(q.cancel(ids[seq]), live) << "step " << step;
      if (live) {
        model.erase({*seat_of[seq], seq});
        seat_of[seq].reset();
        ++cancelled;
      }
    } else {
      pop_and_check();
    }
    ASSERT_EQ(q.size(), model.size()) << "step " << step;
  }
  while (!model.empty()) pop_and_check();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.total_pushed(), ids.size());
  EXPECT_EQ(q.total_deferred(), deferred);
  EXPECT_EQ(q.total_cancelled(), cancelled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------ machine conservation ----

class MachineProperty : public ::testing::TestWithParam<int> {};

TEST_P(MachineProperty, AllocationsNeverExceedCapacity) {
  sim::Simulation sim(GetParam());
  cluster::HybridCluster hc(sim);
  auto* machine = hc.add_machine();
  auto* vm1 = hc.add_vm(*machine);
  auto* vm2 = hc.add_vm(*machine);
  sim::Rng rng(GetParam() * 7 + 1);

  std::vector<cluster::WorkloadPtr> workloads;
  for (int i = 0; i < 9; ++i) {
    Resources d;
    d.cpu = rng.uniform(0, 1.5);
    d.memory = rng.uniform(0, 900);
    d.disk = rng.uniform(0, 70);
    d.net = rng.uniform(0, 70);
    auto w = std::make_shared<Workload>("w" + std::to_string(i), d,
                                        sim::Duration{rng.uniform(5, 50)});
    workloads.push_back(w);
    if (i % 3 == 0) {
      machine->add(w);
    } else if (i % 3 == 1) {
      vm1->add(w);
    } else {
      vm2->add(w);
    }

    Resources total;
    for (const auto& each : workloads) {
      if (each->site() != nullptr) total += each->allocated();
    }
    EXPECT_LE(total.cpu, machine->capacity().cpu + 1e-6);
    EXPECT_LE(total.disk, machine->capacity().disk + 1e-6);
    EXPECT_LE(total.net, machine->capacity().net + 1e-6);
    EXPECT_LE(total.memory, machine->capacity().memory + 1e-6);
  }
  sim.run();
  for (const auto& w : workloads) EXPECT_TRUE(w->done());
}

TEST_P(MachineProperty, SpeedNeverExceedsOne) {
  sim::Simulation sim(GetParam());
  cluster::HybridCluster hc(sim);
  auto* machine = hc.add_machine();
  sim::Rng rng(GetParam() * 13 + 5);
  for (int i = 0; i < 6; ++i) {
    Resources d;
    d.cpu = rng.uniform(0.1, 2.0);
    d.disk = rng.uniform(0, 60);
    auto w = std::make_shared<Workload>("w", d, sim::Duration{10});
    machine->add(w);
    for (const auto& each : machine->workloads()) {
      EXPECT_LE(each->speed(), 1.0 + 1e-9);
      EXPECT_GE(each->speed(), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineProperty,
                         ::testing::Values(11, 23, 37, 59));

// ------------------------------------------------------ job monotonics ----

class ClusterSizeMonotonic
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ClusterSizeMonotonic, MoreNodesNeverMuchSlower) {
  const auto [small_n, large_n] = GetParam();
  TestBed small;
  small.add_native_nodes(small_n);
  const double slow = small.run_job(workload::sort_job().with_input_gb(2));
  TestBed large;
  large.add_native_nodes(large_n);
  const double fast = large.run_job(workload::sort_job().with_input_gb(2));
  // JCT is (weakly) decreasing in cluster size, modulo wave effects.
  EXPECT_LE(fast, slow * 1.05);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ClusterSizeMonotonic,
    ::testing::Values(std::make_pair(2, 4), std::make_pair(4, 8),
                      std::make_pair(8, 16)));

class DataSizeMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(DataSizeMonotonic, MoreDataTakesLonger) {
  const double gb = GetParam();
  TestBed a;
  a.add_native_nodes(4);
  const double small = a.run_job(workload::sort_job().with_input_gb(gb));
  TestBed b;
  b.add_native_nodes(4);
  const double large =
      b.run_job(workload::sort_job().with_input_gb(gb * 2));
  EXPECT_GT(large, small);
  // Fig. 5(d): roughly linear in data size.
  EXPECT_LT(large, small * 3.0);
  EXPECT_GT(large, small * 1.4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DataSizeMonotonic,
                         ::testing::Values(1.0, 2.0, 4.0));

// -------------------------------------------------------- determinism ----

class Determinism : public ::testing::TestWithParam<const char*> {};

TEST_P(Determinism, SameSeedSameResult) {
  auto run_once = [&]() {
    TestBed::Options o;
    o.seed = 77;
    TestBed bed(o);
    bed.add_virtual_nodes(4, 2);
    return bed.run_job(workload::benchmark(GetParam()).with_input_gb(1));
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, Determinism,
                         ::testing::Values("sort", "kmeans", "wcount",
                                           "distgrep"));

// ------------------------------------------------- benchmark lifecycle ----

class BenchmarkLifecycle : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchmarkLifecycle, EveryTaskCompletesExactlyOnce) {
  TestBed bed;
  bed.add_native_nodes(4);
  auto spec = workload::benchmark(GetParam());
  if (spec.input_gb > 2) spec = spec.with_input_gb(1.0);
  mapred::Job* job = bed.mr().submit(spec);
  bed.sim().run();
  ASSERT_TRUE(job->finished());
  EXPECT_GT(job->jct(), 0);
  for (const auto& t : job->maps()) {
    EXPECT_TRUE(t->completed());
    EXPECT_GT(t->duration().value(), 0);
    int finished = 0;
    for (const auto& a : t->attempts()) {
      if (a->finished()) ++finished;
      EXPECT_FALSE(a->running());
    }
    EXPECT_EQ(finished, 1);  // exactly one winner
  }
  for (const auto& t : job->reduces()) EXPECT_TRUE(t->completed());
  // Conservation of data: at least the input was read.
  EXPECT_GE(bed.hdfs().bytes_read_local_mb() +
                bed.hdfs().bytes_read_remote_mb(),
            0.9 * spec.input_mb() * 0.15);  // at least the head fetches
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, BenchmarkLifecycle,
                         ::testing::Values("twitter", "wcount", "piest",
                                           "distgrep", "sort", "kmeans"));

// ----------------------------------------------------- migration sweep ----

class MigrationMemorySweep : public ::testing::TestWithParam<double> {};

TEST_P(MigrationMemorySweep, PrecopyMonotoneInMemory) {
  const cluster::MigrationModel model(cluster::Calibration::standard());
  const double mb = GetParam();
  const auto smaller = model.plan(sim::MegaBytes{mb}, sim::MBps{1.0}, sim::MBps{10});
  const auto larger = model.plan(sim::MegaBytes{mb * 2}, sim::MBps{1.0}, sim::MBps{10});
  EXPECT_GT(larger.precopy_seconds, smaller.precopy_seconds);
  EXPECT_GT(smaller.precopy_seconds.value(), 0);
  EXPECT_TRUE(smaller.converged);
}

INSTANTIATE_TEST_SUITE_P(Memories, MigrationMemorySweep,
                         ::testing::Values(256.0, 512.0, 1024.0, 2048.0));

// ----------------------------------------------- interactive monotonic ----

class ClientSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClientSweep, ThroughputScalesWithClientsUntilSaturation) {
  sim::Simulation sim(3);
  cluster::HybridCluster hc(sim);
  auto* host = hc.add_machine();
  auto* vm = hc.add_vm(*host);
  interactive::InteractiveApp app(sim, *vm, interactive::rubis_params(),
                                  GetParam());
  app.start();
  sim.run_until(30);
  EXPECT_GT(app.throughput_rps(), 0);
  // Closed-loop identity: X = N / (R + Z).
  const double expected =
      GetParam() / (app.response_time_s() + app.params().think_time_s.value());
  EXPECT_NEAR(app.throughput_rps(), expected, expected * 0.01);
  app.stop();
}

INSTANTIATE_TEST_SUITE_P(Clients, ClientSweep,
                         ::testing::Values(100, 400, 1600, 6400));

// -------------------------------------------------- regression recovery ----

class InverseRecovery : public ::testing::TestWithParam<double> {};

TEST_P(InverseRecovery, FitRecoversPlantedCoefficients) {
  const double b = GetParam();
  std::vector<double> x{1, 2, 4, 8, 16, 32};
  std::vector<double> y;
  for (double v : x) y.push_back(7.0 + b / v);
  auto fit = stats::InverseRegression::fit(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->a(), 7.0, 1e-6);
  EXPECT_NEAR(fit->b(), b, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Slopes, InverseRecovery,
                         ::testing::Values(10.0, 100.0, 1000.0));

// --------------------------------------------------- energy accounting ----

class EnergySweep : public ::testing::TestWithParam<int> {};

TEST_P(EnergySweep, EnergyBoundedByIdleAndPeak) {
  TestBed bed;
  bed.add_native_nodes(GetParam());
  bed.run_job(workload::sort_job().with_input_gb(1));
  const double end = bed.sim().now();
  const double joules = bed.cluster().energy_joules(0, end).value();
  const auto& cal = bed.calibration();
  const double idle_floor = GetParam() * cal.pm_idle_watts.value() * end;
  const double peak_ceiling = GetParam() * cal.pm_peak_watts.value() * end;
  EXPECT_GE(joules, idle_floor - 1e-6);
  EXPECT_LE(joules, peak_ceiling + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Nodes, EnergySweep, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace hybridmr
