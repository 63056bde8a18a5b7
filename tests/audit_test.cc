// Tests for the runtime invariant auditor (src/audit). Compiles in every
// build flavour: with HYBRIDMR_AUDIT=ON the violation paths are exercised
// as death tests matching the structured dump; without it the same inputs
// must take the tolerant release-mode paths (clamp + counter).
#include <gtest/gtest.h>

#include <memory>

#include "audit/invariants.h"
#include "sim/simulation.h"

namespace hybridmr {
namespace {

TEST(Audit, EnabledMatchesBuildFlavour) {
#if defined(HYBRIDMR_AUDIT_ENABLED)
  EXPECT_TRUE(audit::kEnabled);
#else
  EXPECT_FALSE(audit::kEnabled);
#endif
}

TEST(Audit, NumFormatsRoundTrippably)
{
  EXPECT_EQ(audit::num(2.0), "2");
  EXPECT_EQ(audit::num(-1.0), "-1");
  EXPECT_EQ(audit::num(0.5), "0.5");
}

#if defined(HYBRIDMR_AUDIT_ENABLED)

using AuditDeathTest = ::testing::Test;

TEST(AuditDeathTest, FailDumpsComponentInvariantAndDetails) {
  EXPECT_DEATH(
      audit::fail("unit.test", "demo_invariant", 1.5,
                  {{"key", "value"}, {"n", audit::num(3.0)}}),
      "AUDIT VIOLATION(.|\n)*unit\\.test(.|\n)*demo_invariant"
      "(.|\n)*key(.|\n)*value");
}

// Satellite (b): scheduling into the past is a hard violation under audit,
// not a clamp. The release-mode clamp regression lives in telemetry_test.cc.
TEST(AuditDeathTest, PastSchedulingAborts) {
  EXPECT_DEATH(
      {
        sim::Simulation sim;
        sim.after(10.0, [] {});
        sim.run();
        sim.at(5.0, [] {});  // now() is 10: in the past
      },
      "AUDIT VIOLATION(.|\n)*no_past_scheduling");
}

#else  // !HYBRIDMR_AUDIT_ENABLED

// The same misuse must stay tolerant in ordinary builds: clamped, counted,
// and the event still fires (regression guard for the clamp path).
TEST(Audit, PastSchedulingClampsWithoutAudit) {
  sim::Simulation sim;
  sim.after(10.0, [] {});
  sim.run();
  bool fired = false;
  sim.at(5.0, [&] { fired = true; });
  EXPECT_EQ(sim.clamped_past_events(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

#endif  // HYBRIDMR_AUDIT_ENABLED

// shutdown() is the sanctioned leak-free teardown for abandoned runs: every
// pending handler (and the captures it owns) must be destroyed, not leaked
// and not fired.
TEST(Audit, ShutdownReleasesPendingCaptures) {
  sim::Simulation sim;
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> watch = sentinel;
  bool fired = false;
  // Both pending events own `sentinel` on purpose: the queue keeping it
  // alive until shutdown() is what this test observes.
  // sim-lint: allow(capture-lifetime)
  sim.after(1.0, [sentinel, &fired] { fired = true; });
  // sim-lint: allow(capture-lifetime)
  sim.after(2.0, [sentinel] {});
  sentinel.reset();
  EXPECT_FALSE(watch.expired());  // the queue keeps the captures alive
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.shutdown(), 2u);
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Regression for the every() ticker cycle: the periodic closure used to keep
// itself alive through a self-referencing shared_ptr even after cancel().
TEST(Audit, PeriodicTickerFreedAfterCancel) {
  sim::Simulation sim;
  auto sentinel = std::make_shared<int>(1);
  std::weak_ptr<int> watch = sentinel;
  // The ticker owns `sentinel` on purpose: it keeping it alive until
  // cancel() is what this test observes.
  // sim-lint: allow(capture-lifetime)
  auto handle = sim.every(1.0, [sentinel] {});
  sentinel.reset();
  sim.run_until(3.5);
  EXPECT_FALSE(watch.expired());
  handle.cancel();
  sim.run();  // drains the already scheduled (now inert) tick
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace hybridmr
