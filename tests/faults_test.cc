// Tests for the fault-injection subsystem: crash/reboot recovery, bounded
// task retries, tracker blacklisting with map re-execution, migration
// rollback, and bit-for-bit chaos determinism.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "faults/injector.h"
#include "harness/testbed.h"
#include "mapred/engine.h"
#include "workload/benchmarks.h"

namespace hybridmr {
namespace {

using faults::FaultInjector;
using faults::FaultSchedule;
using faults::FaultSpec;

mapred::JobSpec slow_job(const std::string& name, double input_gb,
                         int reducers) {
  mapred::JobSpec spec;
  spec.name = name;
  spec.input_gb = input_gb;
  // ~32 s per 64 MB split: faults land mid-run
  spec.map_cpu_s_per_mb = sim::SecondsPerMB{0.5};
  spec.num_reducers = reducers;
  return spec;
}

TEST(Faults, CrashRestoresReplicationFactorAndJobCompletes) {
  harness::TestBed::Options o;
  o.faults.one_shot.push_back(
      {FaultSpec::Kind::kMachineCrash, /*at=*/10.0, "native0"});
  harness::TestBed bed(o);
  bed.add_native_nodes(6);
  ASSERT_NE(bed.faults(), nullptr);

  bed.run_job(slow_job("gr", /*input_gb=*/1.0, /*reducers=*/2));

  const auto& st = bed.faults()->stats();
  EXPECT_EQ(st.machine_crashes, 1);
  EXPECT_EQ(bed.faults()->machines_down(), 1);
  EXPECT_GT(st.datanodes_crashed, 0);
  EXPECT_FALSE(bed.cluster().machine("native0")->powered());
  // 16 input blocks x RF 2 over 6 nodes: the dead node held replicas, all
  // of them re-replicated from survivors with no block lost for good.
  EXPECT_GT(bed.hdfs().re_replicated_mb().value(), 0);
  EXPECT_EQ(bed.hdfs().blocks_lost(), 0);
  EXPECT_EQ(bed.hdfs().min_replication(),
            bed.cluster().calibration().hdfs_replicas);
  ASSERT_EQ(bed.mr().jobs().size(), 1u);
  EXPECT_TRUE(bed.mr().jobs().front()->succeeded());
}

TEST(Faults, RetryBoundTakesJobDown) {
  harness::TestBed::Options o;
  // Fail attempt 1 of map 0 at t=1; each requeue redispatches it on the
  // spot, so the failure at t=k hits attempt k and the one at t=4
  // exhausts Hadoop's bound of 4 attempts.
  for (int at = 1; at <= 4; ++at) {
    o.faults.one_shot.push_back(
        {FaultSpec::Kind::kTaskFailure, static_cast<double>(at), "gr-j0-m0"});
  }
  harness::TestBed bed(o);
  bed.add_native_nodes(2);

  bed.run_job(slow_job("gr", /*input_gb=*/0.25, /*reducers=*/1));

  EXPECT_EQ(bed.faults()->stats().task_failures, 4);
  EXPECT_EQ(bed.mr().attempt_failures(), 4);
  EXPECT_EQ(bed.mr().jobs_failed(), 1);
  ASSERT_EQ(bed.mr().jobs().size(), 1u);
  const mapred::Job& job = *bed.mr().jobs().front();
  EXPECT_EQ(job.state(), mapred::JobState::kFailed);
  EXPECT_TRUE(job.finished());
  EXPECT_FALSE(job.succeeded());
  EXPECT_EQ(bed.mr().active_jobs(), 0);
}

TEST(Faults, SurvivableFailuresStayUnderTheBound) {
  harness::TestBed::Options o;
  o.faults.one_shot.push_back(
      {FaultSpec::Kind::kTaskFailure, /*at=*/1.0, "gr-j0-m0"});
  o.faults.one_shot.push_back(
      {FaultSpec::Kind::kTaskFailure, /*at=*/2.0, "gr-j0-m0"});
  harness::TestBed bed(o);
  bed.add_native_nodes(2);

  bed.run_job(slow_job("gr", /*input_gb=*/0.25, /*reducers=*/1));

  EXPECT_EQ(bed.mr().attempt_failures(), 2);
  EXPECT_EQ(bed.mr().jobs_failed(), 0);
  EXPECT_TRUE(bed.mr().jobs().front()->succeeded());
}

TEST(Faults, TrackerTimeoutReexecutesLostMapOutputs) {
  harness::TestBed bed;
  bed.add_native_nodes(3);
  FaultInjector inj(bed.sim(), bed.cluster(), bed.hdfs(), bed.mr(),
                    FaultSchedule{});

  mapred::Job* job = bed.mr().submit(slow_job("gr", 0.5, 2));
  // Once the reduces are shuffling, time out the tracker whose site holds
  // a finished map's output: Hadoop 1 must re-execute that map.
  bool fired = false;
  std::function<void()> poll = [&] {
    if (!fired && job->state() == mapred::JobState::kReducing) {
      for (const auto& m : job->maps()) {
        if (m->output_site() != nullptr) {
          fired = true;
          EXPECT_TRUE(
              inj.timeout_tracker(*m->output_site(), sim::Duration{20.0}));
          return;  // stop polling
        }
      }
    }
    if (!job->finished()) bed.sim().after(sim::Duration{1.0}, poll);
  };
  bed.sim().after(sim::Duration{1.0}, poll);
  bed.run_until(4000.0);

  ASSERT_TRUE(fired);
  EXPECT_TRUE(job->succeeded());
  EXPECT_EQ(inj.stats().tracker_timeouts, 1);
  EXPECT_EQ(inj.stats().tracker_restores, 1);
  EXPECT_GT(bed.mr().maps_reexecuted(), 0);
  // Every tracker is live again and leaked no slots.
  for (const auto& tr : bed.mr().trackers()) {
    EXPECT_FALSE(tr->blacklisted());
    EXPECT_TRUE(tr->running().empty());
    EXPECT_EQ(tr->free_slots(mapred::TaskType::kMap), tr->map_slots());
    EXPECT_EQ(tr->free_slots(mapred::TaskType::kReduce), tr->reduce_slots());
  }
}

TEST(Faults, CrashDuringShuffleRebootsAndCompletes) {
  harness::TestBed bed;
  bed.add_native_nodes(3);
  FaultInjector inj(bed.sim(), bed.cluster(), bed.hdfs(), bed.mr(),
                    FaultSchedule{});

  mapred::Job* job = bed.mr().submit(slow_job("gr", 0.5, 2));
  bool fired = false;
  std::function<void()> poll = [&] {
    if (!fired && job->state() == mapred::JobState::kReducing) {
      for (const auto& m : job->maps()) {
        if (m->output_site() != nullptr) {
          fired = true;
          cluster::Machine* host =
              bed.cluster().machine(m->output_site()->name());
          ASSERT_NE(host, nullptr);
          EXPECT_TRUE(inj.crash_machine(*host, sim::Duration{30.0}));
          return;
        }
      }
    }
    if (!job->finished()) bed.sim().after(sim::Duration{1.0}, poll);
  };
  bed.sim().after(sim::Duration{1.0}, poll);
  bed.run_until(4000.0);

  ASSERT_TRUE(fired);
  EXPECT_TRUE(job->succeeded());
  EXPECT_EQ(inj.stats().machine_crashes, 1);
  EXPECT_EQ(inj.stats().machine_reboots, 1);
  EXPECT_EQ(inj.machines_down(), 0);
  EXPECT_GT(bed.mr().maps_reexecuted(), 0);
  EXPECT_EQ(bed.hdfs().blocks_lost(), 0);
  EXPECT_EQ(bed.hdfs().min_replication(),
            bed.cluster().calibration().hdfs_replicas);
  for (const auto& m : bed.cluster().machines()) {
    EXPECT_TRUE(m->powered());
  }
}

TEST(Faults, LastReplicaLossFailsDependentJobInsteadOfHanging) {
  harness::TestBed::Options o;
  o.calibration.hdfs_replicas = 1;  // every block loss is terminal
  o.faults.one_shot.push_back(
      {FaultSpec::Kind::kMachineCrash, /*at=*/5.0, "native0"});
  harness::TestBed bed(o);
  bed.add_native_nodes(2);

  bed.run_job(slow_job("gr", /*input_gb=*/1.0, /*reducers=*/1));

  // 16 single-replica blocks over 2 nodes: the crashed node held some,
  // and with RF 1 there is no survivor to re-replicate from.
  EXPECT_GT(bed.hdfs().blocks_lost(), 0);
  const mapred::Job& job = *bed.mr().jobs().front();
  EXPECT_TRUE(bed.hdfs().has_lost_block(job.input_file()));
  EXPECT_EQ(job.state(), mapred::JobState::kFailed);
  EXPECT_EQ(bed.mr().jobs_failed(), 1);
}

TEST(Faults, CrashOfMigrationEndpointRollsVmBack) {
  harness::TestBed bed;
  bed.add_native_nodes(2);
  auto machines = bed.add_plain_machines(2);
  cluster::Machine* src = machines[0];
  cluster::Machine* dst = machines[1];
  cluster::VirtualMachine* vm = bed.add_plain_vm(*src);
  FaultInjector inj(bed.sim(), bed.cluster(), bed.hdfs(), bed.mr(),
                    FaultSchedule{});

  bool done_fired = false;
  ASSERT_TRUE(bed.cluster().migrator().migrate(
      *vm, *dst, [&](const cluster::MigrationRecord&) { done_fired = true; }));
  bed.sim().at(5.0, [&] {
    // Destination dies mid pre-copy: the migration unwinds, then the host
    // powers off.
    EXPECT_TRUE(inj.crash_machine(*dst));
  });
  bed.run_until(1000.0);

  EXPECT_FALSE(done_fired);
  EXPECT_EQ(inj.stats().migrations_aborted, 1);
  EXPECT_EQ(vm->host_machine(), src);
  EXPECT_FALSE(vm->migrating());
  EXPECT_FALSE(vm->paused());
  EXPECT_FALSE(dst->powered());
  ASSERT_EQ(bed.cluster().migrator().history().size(), 1u);
  EXPECT_TRUE(bed.cluster().migrator().history().front().aborted);
}

// Satellite regression: requeue(ban) on a single-tracker cluster used to
// clear the whole ban set — including the just-evicted tracker — letting
// the task bounce straight back onto the node it was pulled from. The
// forgiveness pass must keep the most recent tracker banned until the
// grace timer clears it.
TEST(Faults, RequeueBanSurvivesSaturationForgiveness) {
  harness::TestBed bed;
  bed.add_native_nodes(1);
  mapred::Job* job = bed.mr().submit(slow_job("gr", 0.25, 1));

  bed.sim().at(5.0, [&] {
    auto attempts = bed.mr().running_attempts();
    ASSERT_FALSE(attempts.empty());
    mapred::TaskAttempt* a = attempts.front();
    mapred::Task& task = a->task();
    bed.mr().requeue(*a, /*ban_tracker=*/true);
    // The ban set saturated (1 tracker) and was forgiven down to the most
    // recent entry — not emptied.
    EXPECT_EQ(task.banned_trackers.size(), 1u);
  });
  bed.run_until(4000.0);

  EXPECT_EQ(bed.mr().requeued(), 1);
  // The grace timer forgave the last ban, so the job still completed on
  // the only tracker there is.
  EXPECT_TRUE(job->succeeded());
}

TEST(Faults, ChaosRunsAreByteIdentical) {
  auto run_once = [] {
    harness::TestBed::Options o;
    o.seed = 7;
    o.faults.seed = 99;
    o.faults.one_shot.push_back(
        {FaultSpec::Kind::kMachineCrash, /*at=*/12.0, "native1",
         sim::Duration{40.0}});
    o.faults.one_shot.push_back({FaultSpec::Kind::kTrackerTimeout,
                                 /*at=*/20.0, "", sim::Duration{15.0}});
    o.faults.task_failure_rate = 0.01;
    o.faults.rate_horizon_s = 150;
    harness::TestBed bed(o);
    bed.add_native_nodes(4);
    bed.run_jobs({slow_job("gr", 0.5, 2), slow_job("wc", 0.25, 1)});
    std::ostringstream os;
    bed.report().to_json(os);
    return os.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hybridmr
