// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace hybridmr::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreaking) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  q.push(1.0, [&] { order.push_back(2); });
  q.push(1.0, [&] { order.push_back(3); });
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(1.0, [] {});
  q.push(5.0, [] {});
  q.cancel(early);
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_DOUBLE_EQ(*q.next_time(), 5.0);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation sim;
  double seen = -1;
  sim.at(12.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 12.5);
  EXPECT_DOUBLE_EQ(sim.now(), 12.5);
}

TEST(Simulation, AfterSchedulesRelative) {
  Simulation sim;
  std::vector<double> times;
  sim.at(10.0, [&] {
    sim.after(5.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 15.0);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, StopFromCallback) {
  Simulation sim;
  int fired = 0;
  sim.at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelScheduledEvent) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, PeriodicFiresAtPeriod) {
  Simulation sim;
  std::vector<double> times;
  auto handle = sim.every(2.0, [&] { times.push_back(sim.now()); });
  sim.run_until(7.0);
  handle.cancel();
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(Simulation, PeriodicInitialDelay) {
  Simulation sim;
  std::vector<double> times;
  auto handle = sim.every(2.0, [&] { times.push_back(sim.now()); }, 0.5);
  sim.run_until(5.0);
  handle.cancel();
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{0.5, 2.5, 4.5}));
}

TEST(Simulation, PeriodicCancelStopsFirings) {
  Simulation sim;
  int fired = 0;
  auto handle = sim.every(1.0, [&] { ++fired; });
  sim.at(3.5, [&] { handle.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, EventsProcessedCounts) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

// Named streams: one per name, seeded from the main seed and the name
// alone, so creation order never matters and a repeated lookup (the
// FaultInjector re-asks with an explicit seed) returns the live stream.
TEST(Simulation, NamedRngStreamsAreStablePerName) {
  Simulation a(21);
  Rng& faults = a.named_rng("faults.injector");
  Rng& jitter = a.named_rng("cluster.dirty_jitter");
  Simulation b(21);  // same seed, opposite creation order
  Rng& jitter_b = b.named_rng("cluster.dirty_jitter");
  Rng& faults_b = b.named_rng("faults.injector");

  const double f0 = faults.uniform();
  const double j0 = jitter.uniform();
  EXPECT_NE(f0, j0);
  EXPECT_EQ(f0, faults_b.uniform());
  EXPECT_EQ(j0, jitter_b.uniform());

  // A repeated lookup returns the same stream and ignores the seed.
  EXPECT_EQ(&a.named_rng("faults.injector", 777), &faults);
  EXPECT_EQ(&a.named_rng("faults.injector"), &faults);
  EXPECT_EQ(faults.uniform(), faults_b.uniform());

  EXPECT_EQ(a.named_rng_streams(),
            (std::vector<std::string>{"cluster.dirty_jitter",
                                      "faults.injector"}));
  EXPECT_EQ(a.named_rng_streams(), b.named_rng_streams());

  // Two same-seed simulations agree draw for draw, main stream included.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.rng().uniform(), b.rng().uniform());
    EXPECT_EQ(faults.uniform(), faults_b.uniform());
    EXPECT_EQ(jitter.uniform(), jitter_b.uniform());
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(5.0, 6.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(1);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == 1;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto original = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

}  // namespace
}  // namespace hybridmr::sim
