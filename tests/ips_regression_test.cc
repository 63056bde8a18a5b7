// Regressions for three IPS restore-path bugs (see docs/WHATIF.md for the
// release-observer wiring the first two pin down):
//
//   Bug 1 — the flap-guard ratchet only ever went up. A host that
//   re-violated soon after restores doubled its required healthy streak
//   (up to 64) and then kept that requirement FOREVER, so one bad hour
//   early in a long run left batch work throttled long after the
//   interference was gone. Fix: every `ratchet_decay_epochs` consecutive
//   healthy epochs halves the requirement, and a requirement back at the
//   configured floor is dropped.
//
//   Bug 2 — stale state after attempt/machine death. `actions_` entries
//   for dead attempts lingered until the next epoch's poll, so owns()
//   lied to the DRM mid-epoch; and the per-host hysteresis maps
//   (healthy/required streaks, last restore time) were never pruned when
//   a machine crashed, growing without bound under chaos schedules. Fix:
//   an engine release observer erases actions the instant any attempt
//   dies (finish, kill, requeue, crash teardown all funnel through
//   TaskTracker::release), and epoch-start pruning drops per-host entries
//   for unpowered machines.
//
//   Bug 3 — restores of attempts that started at the same instant with the
//   same task index were ordered by pointer. Fix: restores_before() also
//   breaks ties by job id and task type.
//
// Each test fails against the pre-fix IPS.
#include <gtest/gtest.h>

#include <vector>

#include "core/estimator.h"
#include "core/ips.h"
#include "faults/injector.h"
#include "harness/testbed.h"
#include "interactive/app.h"
#include "interactive/presets.h"
#include "interactive/sla.h"
#include "workload/benchmarks.h"

namespace hybridmr::core {
namespace {

// One shared host: interactive VM + batch VM (datanode + tracker), the
// smallest cluster where the IPS has anything to arbitrate.
struct SharedHost {
  explicit SharedHost(harness::TestBed& bed)
      : host(bed.add_plain_machines(1)[0]),
        app_vm(bed.add_plain_vm(*host)),
        batch_vm(bed.add_plain_vm(*host)) {
    bed.hdfs().add_datanode(*batch_vm);
    bed.mr().add_tracker(*batch_vm);
  }
  cluster::Machine* host;
  cluster::VirtualMachine* app_vm;
  cluster::VirtualMachine* batch_vm;
};

// --- Bug 1: the flap-guard ratchet must decay on sustained health --------

TEST(IpsFlapGuard, RatchetDecaysAfterSustainedHealth) {
  harness::TestBed bed;
  SharedHost shape(bed);

  interactive::SlaMonitor monitor;
  interactive::InteractiveApp app(bed.sim(), *shape.app_vm,
                                  interactive::olio_params(), 1000);
  app.start();
  monitor.track(app);

  Estimator estimator;
  IpsOptions options;
  options.allow_vm_migration = false;
  options.ratchet_decay_epochs = 2;  // fast decay keeps the test short
  InterferencePreventionSystem ips(bed.sim(), bed.mr(), bed.cluster(),
                                   monitor, estimator, options);
  ips.start();

  // Round 1: batch load violates the SLA, the IPS throttles, the job
  // drains, health returns and actions are restored.
  bed.mr().submit(workload::sort_job().with_input_gb(1.0));
  while (ips.stats().restores == 0 && bed.sim().now() < 2000) {
    bed.run_until(bed.sim().now() + 10);
  }
  ASSERT_GT(ips.stats().restores, 0) << "scenario never restored";

  // Round 2: re-offend inside the flap window — the ratchet must engage.
  bed.mr().submit(workload::sort_job().with_input_gb(1.0));
  while (ips.required_streak(*shape.host) <= options.restore_streak &&
         bed.sim().now() < 2000) {
    bed.run_until(bed.sim().now() + 10);
  }
  ASSERT_GT(ips.required_streak(*shape.host), options.restore_streak)
      << "flap ratchet never engaged";

  // Sustained health: the batch drains and the app idles below margin.
  // The decay must walk the requirement back to the floor — pre-fix it
  // stays ratcheted forever.
  bed.run_until(bed.sim().now() + 600);
  EXPECT_EQ(ips.required_streak(*shape.host), options.restore_streak)
      << "flap ratchet never decayed";
  app.stop();
  ips.stop();
}

// --- Bug 2: chaos must not leave stale actions or host maps behind ------

TEST(IpsStaleState, CrashErasesActionsImmediatelyAndPrunesHostMaps) {
  harness::TestBed::Options o;
  // The shared host dies mid-violation and never comes back.
  o.faults.one_shot.push_back({faults::FaultSpec::Kind::kMachineCrash,
                               /*at=*/160.0, "plain0", sim::Duration{-1.0}});
  harness::TestBed bed(o);
  SharedHost shape(bed);

  interactive::SlaMonitor monitor;
  interactive::InteractiveApp app(bed.sim(), *shape.app_vm,
                                  interactive::olio_params(), 1000);
  app.start();
  monitor.track(app);

  Estimator estimator;
  IpsOptions options;
  // Keep actions parked at throttle/pause so ownership persists until the
  // crash: no requeue erasure, no migration escape hatch, and a restore
  // margin no response time can meet (so restores never drain the map).
  options.allow_requeue = false;
  options.allow_vm_migration = false;
  options.restore_margin = 0.0;
  InterferencePreventionSystem ips(bed.sim(), bed.mr(), bed.cluster(),
                                   monitor, estimator, options);
  ips.start();

  bed.mr().submit(workload::sort_job().with_input_gb(4.0));

  // Record state just before, just after, and one epoch after the crash.
  bool owned_before = false;
  bool tracked_before = false;
  int actions_right_after_crash = -1;
  bool stale_owns_right_after_crash = false;
  std::vector<mapred::TaskAttempt*> owned;
  bed.sim().at(159.0, [&] {
    owned_before = ips.action_count() > 0;
    tracked_before = ips.tracks_host(*shape.host);
    for (auto* a : bed.mr().running_attempts()) {
      if (ips.owns(*a)) owned.push_back(a);
    }
  });
  // 160.5 sits between the crash and the next IPS epoch (tick at 170): an
  // epoch-start poll cannot have run yet, so only the event-driven
  // release observer can have cleaned up — exactly what the fix adds.
  bed.sim().at(160.5, [&] {
    actions_right_after_crash = ips.action_count();
    for (auto* a : owned) {
      stale_owns_right_after_crash |= ips.owns(*a);
    }
  });
  bed.run_until(180.0);

  ASSERT_TRUE(owned_before) << "IPS never took ownership before the crash";
  ASSERT_TRUE(tracked_before);
  ASSERT_FALSE(shape.host->powered());
  // Event-driven: dead attempts leave the action map the instant the
  // crash tears their trackers down, not at the next epoch.
  EXPECT_EQ(actions_right_after_crash, 0);
  EXPECT_FALSE(stale_owns_right_after_crash);
  // Epoch-start pruning: the dead host's hysteresis entries are gone.
  EXPECT_FALSE(ips.tracks_host(*shape.host));
  ips.stop();
}

// --- Bug 3: restore order must not depend on memory layout --------------

// Two jobs submitted together launch their first map tasks at the same
// instant with the same task index, so start time and index alone rank the
// two attempts equal. The IPS keys its actions by pointer, so with such a
// tie the restore order (one restore per epoch) followed the attempts'
// addresses, which differ between two runs of one seed in one process.
TEST(IpsRestoreOrder, SameInstantAttemptsOfTwoJobsAreTotallyOrdered) {
  harness::TestBed bed;
  bed.add_native_nodes(2);
  const auto small = workload::sort_job().with_input_gb(0.25);
  const mapred::Job* first = bed.mr().submit(small);
  const mapred::Job* second = bed.mr().submit(small);
  bed.run_until(1.0);

  const mapred::TaskAttempt* a = nullptr;
  const mapred::TaskAttempt* b = nullptr;
  for (const mapred::TaskAttempt* t : bed.mr().running_attempts()) {
    if (t->task().type() != mapred::TaskType::kMap || t->task().index() != 0) {
      continue;
    }
    if (&t->task().job() == first) a = t;
    if (&t->task().job() == second) b = t;
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->started_at(), b->started_at()) << "no tie to break";
  EXPECT_TRUE(restores_before(*a, *b));
  EXPECT_FALSE(restores_before(*b, *a));
  EXPECT_FALSE(restores_before(*a, *a));
}

}  // namespace
}  // namespace hybridmr::core
