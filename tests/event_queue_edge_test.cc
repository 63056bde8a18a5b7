// EventQueue cancellation and reschedule edge cases: lifetimes, cancellation
// races and defer() seats that the happy-path tests in sim_test.cc do not
// reach. These pin down the lazy-deletion contract (cancel and postpone
// never restructure the heap, handlers die exactly once) that the
// leak-clean teardown work relies on. The seat contract itself (FIFO ties
// follow creation order however events were deferred) is checked against
// an ordered model by EventQueueProperty in property_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace hybridmr::sim {
namespace {

TEST(EventQueueEdge, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  e->fn();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueEdge, DoubleCancelSecondIsNoOp) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  // The cancelled heap entry must not resurface as a fireable event.
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e->time, 2.0);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueueEdge, CancelOtherEventFromPoppedCallback) {
  EventQueue q;
  bool second_fired = false;
  EventId second;
  q.push(1.0, [&] { EXPECT_TRUE(q.cancel(second)); });
  second = q.push(2.0, [&] { second_fired = true; });
  while (auto e = q.pop()) e->fn();
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueEdge, CancelOwnIdDuringCallbackReturnsFalse) {
  // Once popped, an event has fired from the queue's perspective; its own
  // callback cancelling itself must be a harmless no-op.
  EventQueue q;
  EventId self;
  bool saw_false = false;
  self = q.push(1.0, [&] { saw_false = !q.cancel(self); });
  while (auto e = q.pop()) e->fn();
  EXPECT_TRUE(saw_false);
}

TEST(EventQueueEdge, HandlerDestroyedOnCancel) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(42);
  std::weak_ptr<int> watch = sentinel;
  const EventId id = q.push(1.0, [sentinel] {});
  sentinel.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(q.cancel(id));
  // Lazy cancellation may keep the heap entry, but the handler (and the
  // captures it owns) must die immediately.
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueEdge, HandlersDestroyedOnQueueDestruction) {
  auto sentinel = std::make_shared<int>(42);
  std::weak_ptr<int> watch = sentinel;
  {
    EventQueue q;
    q.push(1.0, [sentinel] {});
    q.push(2.0, [sentinel] {});
    sentinel.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueEdge, ClearDropsEverythingWithoutFiring) {
  EventQueue q;
  int fired = 0;
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  q.push(1.0, [&fired, sentinel] { ++fired; });
  q.push(2.0, [&fired, sentinel] { ++fired; });
  const EventId cancelled = q.push(3.0, [&fired] { ++fired; });
  q.cancel(cancelled);
  sentinel.reset();
  EXPECT_EQ(q.clear(), 2u);  // live events only, cancelled one not counted
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
  // The queue stays usable after clear().
  q.push(4.0, [&fired] { ++fired; });
  while (auto e = q.pop()) e->fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueEdge, NextTimeAllCancelledIsEmpty) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  const EventId b = q.push(2.0, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_FALSE(q.next_time().has_value());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueEdge, DeferPostponesAndAdvancesInPlace) {
  EventQueue q;
  std::vector<std::string> fired;
  const EventId a = q.push(10.0, [&] { fired.push_back("a"); });
  q.push(20.0, [&] { fired.push_back("b"); });
  const EventId c = q.push(30.0, [&] { fired.push_back("c"); });
  // Postpone: the stale seat at 10 is re-seated when it surfaces.
  EXPECT_TRUE(q.defer(a, 25.0));
  // Advance: a fresh heap item at 5; the superseded one at 30 stays behind
  // as a duplicate and must skim away instead of firing c twice.
  EXPECT_TRUE(q.defer(c, 5.0));
  EXPECT_EQ(q.size(), 3u);  // same events, new seats
  EXPECT_EQ(q.total_deferred(), 2u);
  EXPECT_EQ(q.total_pushed(), 3u);
  std::vector<double> times;
  while (auto e = q.pop()) {
    times.push_back(e->time);
    e->fn();
  }
  EXPECT_EQ(fired, (std::vector<std::string>{"c", "b", "a"}));
  EXPECT_EQ(times, (std::vector<double>{5.0, 20.0, 25.0}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_cancelled(), 0u);
}

TEST(EventQueueEdge, DeferRejectsDeadIds) {
  EventQueue q;
  const EventId fired = q.push(1.0, [] {});
  const EventId cancelled = q.push(2.0, [] {});
  q.push(3.0, [] {});
  ASSERT_TRUE(q.pop().has_value());
  ASSERT_TRUE(q.cancel(cancelled));
  for (const EventId dead : {fired, cancelled, EventId{}}) {
    EXPECT_FALSE(q.defer(dead, 9.0));
  }
  // Nothing moved and nothing was counted.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.total_deferred(), 0u);
  EXPECT_EQ(q.total_pushed(), 3u);
  EXPECT_EQ(q.total_cancelled(), 1u);
  EXPECT_EQ(q.next_time(), std::optional<SimTime>(3.0));
}

TEST(EventQueueEdge, StaleHeapItemsAreSkimmed) {
  EventQueue q;
  const EventId cancelled = q.push(1.0, [] {});
  const EventId postponed = q.push(2.0, [] {});
  q.push(3.0, [] {});
  q.cancel(cancelled);
  q.defer(postponed, 4.0);
  // The head holds a cancelled item (1.0) and a stale seat (2.0); both
  // skim away before the first live event surfaces.
  EXPECT_EQ(q.next_time(), std::optional<SimTime>(3.0));
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e->time, 3.0);
  e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->id == postponed);
  EXPECT_DOUBLE_EQ(e->time, 4.0);
  EXPECT_FALSE(q.pop().has_value());
}

// Simulation-level: cancelling a later event from inside a dispatched
// callback (the common "completion cancels the timeout" pattern).
TEST(SimulationEdge, CancelFromRunningCallback) {
  Simulation sim;
  std::vector<int> order;
  EventId doomed;
  sim.at(1.0, [&] {
    order.push_back(1);
    EXPECT_TRUE(sim.cancel(doomed));
  });
  doomed = sim.at(2.0, [&] { order.push_back(2); });
  sim.at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

// Every event ever scheduled is processed, cancelled or still pending, at
// every quiescent point; defer() moves events without touching that
// identity.
TEST(SimulationEdge, ConservationHoldsAcrossDefer) {
  Simulation sim;
  auto conserved = [&] {
    return sim.events_scheduled() == sim.events_processed() +
                                         sim.events_cancelled() +
                                         sim.pending_events();
  };
  const EventId postponed = sim.at(4.0, [] {});
  const EventId advanced = sim.at(9.0, [] {});
  sim.at(6.0, [] {});
  const EventId doomed = sim.at(7.0, [] {});
  sim.at(1.0, [&] {
    EXPECT_TRUE(sim.defer(postponed, 8.0));
    EXPECT_TRUE(sim.defer(advanced, 2.0));
    EXPECT_TRUE(sim.cancel(doomed));
  });
  EXPECT_TRUE(conserved());
  sim.run_until(2.5);
  EXPECT_TRUE(conserved());
  EXPECT_EQ(sim.events_processed(), 2u);  // the 1.0 handler + advanced@2
  sim.run();
  EXPECT_TRUE(conserved());
  EXPECT_EQ(sim.events_scheduled(), 5u);
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_deferred(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 8.0);
}

}  // namespace
}  // namespace hybridmr::sim
