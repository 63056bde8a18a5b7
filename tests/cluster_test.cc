// Tests for the machine/VM allocation engine, power and migration models.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "cluster/cluster.h"
#include "cluster/machine.h"
#include "cluster/migration.h"
#include "sim/simulation.h"

namespace hybridmr::cluster {
namespace {

const Calibration& cal() { return Calibration::standard(); }

WorkloadPtr make_cpu_work(double cores, double seconds) {
  Resources d;
  d.cpu = cores;
  return std::make_shared<Workload>(d, sim::Duration{seconds});
}

class ClusterTest : public ::testing::Test {
 protected:
  sim::Simulation sim{1};
  HybridCluster cluster{sim};
};

TEST(Waterfill, SatisfiesAllWhenCapacitySufficient) {
  std::vector<double> d{1, 2, 3};
  auto a = waterfill(10, d);
  EXPECT_DOUBLE_EQ(a[0], 1);
  EXPECT_DOUBLE_EQ(a[1], 2);
  EXPECT_DOUBLE_EQ(a[2], 3);
}

TEST(Waterfill, MaxMinFairUnderContention) {
  std::vector<double> d{1, 10, 10};
  auto a = waterfill(9, d);
  EXPECT_DOUBLE_EQ(a[0], 1);  // small demand fully satisfied
  EXPECT_DOUBLE_EQ(a[1], 4);  // remainder split equally
  EXPECT_DOUBLE_EQ(a[2], 4);
}

TEST(Waterfill, NeverExceedsCapacityOrDemand) {
  std::vector<double> d{5, 3, 8, 0.5};
  auto a = waterfill(7, d);
  double total = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_LE(a[i], d[i] + 1e-12);
    total += a[i];
  }
  EXPECT_LE(total, 7 + 1e-9);
}

TEST(Waterfill, EmptyAndZeroCapacity) {
  EXPECT_TRUE(waterfill(5, {}).empty());
  std::vector<double> d{1, 2};
  auto a = waterfill(0, d);
  EXPECT_DOUBLE_EQ(a[0], 0);
  EXPECT_DOUBLE_EQ(a[1], 0);
}

TEST(MemoryPressure, PiecewiseShape) {
  const auto& c = cal();
  EXPECT_DOUBLE_EQ(memory_pressure_factor(1.0, c), 1.0);
  EXPECT_DOUBLE_EQ(memory_pressure_factor(1.5, c), 1.0);
  // Gentle region.
  const double soft = memory_pressure_factor(0.85, c);
  EXPECT_LT(soft, 1.0);
  EXPECT_GT(soft, 0.85);
  // Thrashing region is steeper.
  const double hard = memory_pressure_factor(0.4, c);
  EXPECT_LT(hard, soft);
  // Floored.
  EXPECT_DOUBLE_EQ(memory_pressure_factor(0.0, c), c.mem_floor);
}

TEST_F(ClusterTest, SingleWorkloadRunsAtFullSpeed) {
  Machine* m = cluster.add_machine();
  bool done = false;
  auto w = make_cpu_work(1.0, 10.0);
  w->on_complete = [&] { done = true; };
  m->add(w);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST_F(ClusterTest, ZeroDemandWorkloadIsPureDelay) {
  Machine* m = cluster.add_machine();
  auto w = std::make_shared<Workload>(Resources{}, sim::Duration{7.0});
  bool done = false;
  w->on_complete = [&] { done = true; };
  m->add(w);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
}

TEST_F(ClusterTest, CpuContentionSlowsProportionally) {
  // Two 1.5-core demands on a 2-core machine: each granted 1.0 core,
  // speed = 1/1.5, so 10s of work takes 15s.
  Machine* m = cluster.add_machine();
  m->add(make_cpu_work(1.5, 10.0));
  m->add(make_cpu_work(1.5, 10.0));
  sim.run();
  EXPECT_NEAR(sim.now(), 15.0, 1e-9);
}

TEST_F(ClusterTest, LateArrivalSlowsTheFirst) {
  Machine* m = cluster.add_machine();
  auto a = make_cpu_work(2.0, 10.0);
  double a_done = -1;
  a->on_complete = [&] { a_done = sim.now(); };
  m->add(a);
  sim.at(5.0, [&] { m->add(make_cpu_work(2.0, 10.0)); });
  sim.run();
  // First half at full speed (5s of work done by t=5), then half speed:
  // remaining 5s of work takes 10s -> a completes at 15.
  EXPECT_NEAR(a_done, 15.0, 1e-9);
}

TEST_F(ClusterTest, CapsThrottleSpeed) {
  Machine* m = cluster.add_machine();
  auto w = make_cpu_work(1.0, 10.0);
  Resources caps = Resources::unbounded();
  caps.cpu = 0.5;
  w->set_caps(caps);
  m->add(w);
  sim.run();
  EXPECT_NEAR(sim.now(), 20.0, 1e-9);
}

TEST_F(ClusterTest, PauseStopsProgressAndResumeContinues) {
  Machine* m = cluster.add_machine();
  auto w = make_cpu_work(1.0, 10.0);
  m->add(w);
  sim.at(4.0, [&] { w->set_paused(true); });
  sim.at(9.0, [&] { w->set_paused(false); });
  sim.run();
  EXPECT_NEAR(sim.now(), 15.0, 1e-9);  // 4s run + 5s pause + 6s run
}

TEST_F(ClusterTest, RemoveCancelsCompletion) {
  Machine* m = cluster.add_machine();
  auto w = make_cpu_work(1.0, 10.0);
  bool completed = false;
  w->on_complete = [&] { completed = true; };
  m->add(w);
  sim.at(3.0, [&] { m->remove(w.get()); });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_NEAR(w->remaining().value(), 7.0, 1e-9);
  EXPECT_EQ(w->site(), nullptr);
}

TEST_F(ClusterTest, DiskContentionSharesBandwidth) {
  Machine* m = cluster.add_machine();
  Resources d;
  d.disk = 80;  // full disk each
  auto a = std::make_shared<Workload>(d, sim::Duration{10.0});
  auto b = std::make_shared<Workload>(d, sim::Duration{10.0});
  m->add(a);
  m->add(b);
  sim.run();
  EXPECT_NEAR(sim.now(), 20.0, 1e-9);  // each gets half the disk
}

TEST_F(ClusterTest, VmCpuTaxSlowsWork) {
  Machine* m = cluster.add_machine();
  VirtualMachine* vm = cluster.add_vm(*m);
  auto w = make_cpu_work(1.0, 10.0);
  vm->add(w);
  sim.run();
  EXPECT_NEAR(sim.now(), 10.0 / (1.0 - cal().cpu_tax), 1e-6);
}

TEST_F(ClusterTest, Dom0NearNative) {
  Machine* m = cluster.add_machine();
  VirtualMachine* vm =
      cluster.add_vm(*m, "dom0", sim::CoreShare{cal().pm_cores},
                     cal().pm_memory_mb);
  vm->set_dom0(true);
  auto w = make_cpu_work(1.0, 100.0);
  vm->add(w);
  sim.run();
  // Within 5% of native (paper Fig. 2(c)).
  EXPECT_LT(sim.now(), 105.0);
  EXPECT_GT(sim.now(), 100.0);
}

TEST_F(ClusterTest, VmIoTaxExceedsCpuTax) {
  Machine* m1 = cluster.add_machine();
  VirtualMachine* vm1 = cluster.add_vm(*m1);
  Resources io;
  io.disk = 40;
  auto w = std::make_shared<Workload>(io, sim::Duration{10.0});
  vm1->add(w);
  sim.run();
  const double io_time = sim.now();
  EXPECT_GT(io_time, 10.0 / (1.0 - cal().cpu_tax));  // worse than CPU tax
  EXPECT_LT(io_time, 10.0 / (1.0 - 0.35));           // bounded
}

TEST_F(ClusterTest, CollocatedIoVmsContendBeyondSharing) {
  // Two VMs on one host each running a 30 MB/s disk stream: raw bandwidth
  // (80) is sufficient, so any slowdown beyond the base tax is the Dom-0
  // back-end contention term.
  Machine* m = cluster.add_machine();
  VirtualMachine* vm1 = cluster.add_vm(*m);
  VirtualMachine* vm2 = cluster.add_vm(*m);
  Resources io;
  io.disk = 30;
  auto a = std::make_shared<Workload>(io, sim::Duration{10.0});
  auto b = std::make_shared<Workload>(io, sim::Duration{10.0});
  vm1->add(a);
  vm2->add(b);
  double single_eff = vm1->io_efficiency(1);
  double dual_eff = vm1->io_efficiency(2);
  EXPECT_LT(dual_eff, single_eff);
  sim.run();
  EXPECT_NEAR(sim.now(), 10.0 / dual_eff, 0.2);
}

TEST_F(ClusterTest, VmVcpuCapLimitsInternalWork) {
  // Two 1-core demands inside a 1-vCPU VM on an idle 2-core host: the VM
  // cap, not the host, is the bottleneck.
  Machine* m = cluster.add_machine();
  VirtualMachine* vm = cluster.add_vm(*m);
  vm->add(make_cpu_work(1.0, 10.0));
  vm->add(make_cpu_work(1.0, 10.0));
  sim.run();
  EXPECT_NEAR(sim.now(), 20.0 / (1.0 - cal().cpu_tax), 1e-6);
}

TEST_F(ClusterTest, PausedVmFreezesItsWorkloads) {
  Machine* m = cluster.add_machine();
  VirtualMachine* vm = cluster.add_vm(*m);
  auto w = make_cpu_work(1.0, 9.5);
  vm->add(w);
  sim.at(2.0, [&] { vm->set_paused(true); });
  sim.at(7.0, [&] { vm->set_paused(false); });
  sim.run();
  // 9.5s of work at 0.95 speed = 10s of runtime, plus the 5s pause.
  EXPECT_NEAR(sim.now(), 15.0, 1e-6);
}

TEST_F(ClusterTest, EnergyIdleIntegratesIdlePower) {
  Machine* m = cluster.add_machine();
  sim.at(100.0, [] {});
  sim.run();
  EXPECT_NEAR(m->energy().joules(0, 100).value(), cal().pm_idle_watts.value() * 100,
              1e-6);
}

TEST_F(ClusterTest, EnergyRisesWithLoad) {
  Machine* idle = cluster.add_machine();
  Machine* busy = cluster.add_machine();
  busy->add(make_cpu_work(2.0, 100.0));
  sim.run();
  EXPECT_GT(busy->energy().joules(0, 100), idle->energy().joules(0, 100));
  // Fully CPU-loaded: blended utilization 0.7 -> 180 + 80*0.7 = 236 W.
  EXPECT_NEAR(busy->energy().mean_watts(0, 100).value(), 236.0, 1.0);
}

TEST_F(ClusterTest, PoweredOffMachineConsumesNothing) {
  Machine* m = cluster.add_machine();
  m->set_powered(false);
  sim.at(50.0, [] {});
  sim.run();
  EXPECT_NEAR(m->energy().joules(0, 50).value(), 0, 1e-9);
}

TEST(MigrationModel, PlanScalesWithMemory) {
  MigrationModel model(cal());
  const auto small =
      model.plan(sim::MegaBytes{512}, sim::MBps{0.0}, sim::MBps{10});
  const auto large =
      model.plan(sim::MegaBytes{1024}, sim::MBps{0.0}, sim::MBps{10});
  EXPECT_NEAR(small.precopy_seconds.value(), 51.2, 1e-9);
  EXPECT_NEAR(large.precopy_seconds.value(), 102.4, 1e-9);
  EXPECT_GT(large.precopy_seconds, small.precopy_seconds);
}

TEST(MigrationModel, DirtyRateLengthensPrecopyAndDowntime) {
  MigrationModel model(cal());
  const auto idle =
      model.plan(sim::MegaBytes{1024}, sim::MBps{0.2}, sim::MBps{10});
  const auto busy =
      model.plan(sim::MegaBytes{1024}, sim::MBps{4.0}, sim::MBps{10});
  EXPECT_GT(busy.precopy_seconds, idle.precopy_seconds);
  EXPECT_GT(busy.downtime_seconds, idle.downtime_seconds);
  EXPECT_TRUE(busy.converged);
}

TEST(MigrationModel, DivergentDirtyRateBails) {
  MigrationModel model(cal());
  const auto plan =
      model.plan(sim::MegaBytes{1024}, sim::MBps{20.0}, sim::MBps{10});
  EXPECT_FALSE(plan.converged);
  EXPECT_GT(plan.downtime_seconds, sim::Duration{1.0});  // big stop-and-copy
}

TEST_F(ClusterTest, LiveMigrationMovesVmAndPreservesWork) {
  Machine* src = cluster.add_machine("src");
  Machine* dst = cluster.add_machine("dst");
  VirtualMachine* vm = cluster.add_vm(*src);
  auto w = make_cpu_work(0.5, 200.0);
  bool work_done = false;
  w->on_complete = [&] { work_done = true; };
  vm->add(w);

  bool migrated = false;
  sim.at(1.0, [&] {
    EXPECT_TRUE(cluster.migrator().migrate(*vm, *dst,
                                           [&](const MigrationRecord& r) {
                                             migrated = true;
                                             EXPECT_EQ(r.from, "src");
                                             EXPECT_EQ(r.to, "dst");
                                             EXPECT_GT(r.precopy_seconds.value(), 0);
                                             EXPECT_GT(r.downtime_seconds.value(), 0);
                                           }));
  });
  sim.run();
  EXPECT_TRUE(migrated);
  EXPECT_TRUE(work_done);
  EXPECT_EQ(vm->host_machine(), dst);
  EXPECT_EQ(cluster.migrator().history().size(), 1u);
  EXPECT_FALSE(vm->migrating());
  EXPECT_FALSE(vm->paused());
}

TEST_F(ClusterTest, MigrationRefusesDoubleAndSelfMoves) {
  Machine* src = cluster.add_machine("src");
  Machine* dst = cluster.add_machine("dst");
  VirtualMachine* vm = cluster.add_vm(*src);
  EXPECT_FALSE(cluster.migrator().migrate(*vm, *src));  // same host
  EXPECT_TRUE(cluster.migrator().migrate(*vm, *dst));
  EXPECT_FALSE(cluster.migrator().migrate(*vm, *dst));  // already in flight
  sim.run();
  EXPECT_EQ(vm->host_machine(), dst);
}

TEST_F(ClusterTest, LoadedVmMigratesSlowerThanIdle) {
  Machine* a = cluster.add_machine();
  Machine* b = cluster.add_machine();
  Machine* c = cluster.add_machine();
  Machine* d = cluster.add_machine();
  VirtualMachine* idle_vm = cluster.add_vm(*a);
  VirtualMachine* busy_vm = cluster.add_vm(*c);
  Resources mem_heavy;
  mem_heavy.cpu = 0.5;
  mem_heavy.memory = 800;
  busy_vm->add(std::make_shared<Workload>(mem_heavy, sim::Duration{1e6}));

  double idle_time = -1;
  double busy_time = -1;
  cluster.migrator().migrate(*idle_vm, *b, [&](const MigrationRecord& r) {
    idle_time = r.precopy_seconds.value();
  });
  cluster.migrator().migrate(*busy_vm, *d, [&](const MigrationRecord& r) {
    busy_time = r.precopy_seconds.value();
  });
  sim.run_until(10000);
  ASSERT_GT(idle_time, 0);
  ASSERT_GT(busy_time, 0);
  EXPECT_GT(busy_time, idle_time);
}

TEST(MigrationModel, RoundCapExitReportsNonConvergence) {
  MigrationModel model(cal());
  // Dirtying at 95% of bandwidth shrinks the residual by only 5% per
  // round: 1024 MB * 0.95^30 is still ~220 MB when the round cap hits.
  // This exit used to slip through with converged == true.
  const auto capped =
      model.plan(sim::MegaBytes{1024}, sim::MBps{9.5}, sim::MBps{10});
  EXPECT_EQ(capped.rounds, cal().migration_max_rounds);
  EXPECT_FALSE(capped.converged);
  // The big residual becomes stop-and-copy downtime.
  EXPECT_GT(capped.downtime_seconds, sim::Duration{10.0});

  // The genuine-convergence exit still reports converged with a downtime
  // bounded by the stop threshold.
  const auto fine =
      model.plan(sim::MegaBytes{1024}, sim::MBps{0.5}, sim::MBps{10});
  EXPECT_LT(fine.rounds, cal().migration_max_rounds);
  EXPECT_TRUE(fine.converged);
  EXPECT_LE(fine.downtime_seconds,
            cal().migration_stop_threshold_mb / sim::MBps{10} +
                sim::Duration{cal().migration_downtime_overhead_s + 1e-9});
}

TEST(MigrationModel, DirtyRateJitterIsUnitMean) {
  // exp(N(0, sigma)) has mean exp(sigma^2/2) ~ 1.13 at sigma = 0.5 — the
  // old jitter silently ran every migration 13% hotter. The unit-mean
  // form exp(N(-sigma^2/2, sigma)) must average to 1.
  sim::Rng rng{1234};
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += unit_mean_lognormal(rng, Migrator::kDirtyRateJitterSigma);
  }
  const double mean = sum / n;
  // Standard error of the mean is ~sqrt((e^{0.25}-1))/sqrt(n) ~ 0.0038;
  // +-0.02 is over 5 sigma, so this cannot flap, but it would have
  // failed the old 1.13-mean jitter by a mile.
  EXPECT_NEAR(mean, 1.0, 0.02);
}

TEST_F(ClusterTest, AbortDuringPrecopyRollsBackToSource) {
  Machine* src = cluster.add_machine("src");
  Machine* dst = cluster.add_machine("dst");
  VirtualMachine* vm = cluster.add_vm(*src);
  auto w = make_cpu_work(0.5, 500.0);
  vm->add(w);

  bool done_fired = false;
  ASSERT_TRUE(cluster.migrator().migrate(
      *vm, *dst, [&](const MigrationRecord&) { done_fired = true; }));
  // Mid pre-copy (an idle 1 GB guest pre-copies for ~100 s): the
  // destination host dies.
  sim.at(5.0, [&] {
    EXPECT_EQ(cluster.migrator().abort_involving(*dst), 1);
  });
  sim.run_until(400.0);

  EXPECT_FALSE(done_fired);  // completion must not fire after an abort
  EXPECT_EQ(vm->host_machine(), src);
  EXPECT_FALSE(vm->migrating());
  EXPECT_FALSE(vm->paused());
  EXPECT_FALSE(w->paused());  // guest work keeps running on the source
  // Both pre-copy streams are gone from their hosts.
  EXPECT_TRUE(src->workloads().empty());
  EXPECT_TRUE(dst->workloads().empty());
  ASSERT_EQ(cluster.migrator().history().size(), 1u);
  const MigrationRecord& rec = cluster.migrator().history().front();
  EXPECT_TRUE(rec.aborted);
  EXPECT_NEAR(rec.precopy_seconds.value(), 5.0, 1e-9);
  // A fresh migration of the same VM is allowed afterwards.
  EXPECT_TRUE(cluster.migrator().migrate(*vm, *dst));
}

TEST_F(ClusterTest, AbortDuringDowntimeCancelsCompletion) {
  Machine* src = cluster.add_machine("src");
  Machine* dst = cluster.add_machine("dst");
  VirtualMachine* vm = cluster.add_vm(*src);

  bool done_fired = false;
  ASSERT_TRUE(cluster.migrator().migrate(
      *vm, *dst, [&](const MigrationRecord&) { done_fired = true; }));
  // Poll for the stop-and-copy pause (its start time is jittered); the
  // fixed downtime overhead is 50 ms, so a 10 ms poll always catches it.
  std::function<void()> poll = [&] {
    if (vm->paused()) {
      EXPECT_EQ(cluster.migrator().abort_involving(*src), 1);
    } else if (vm->migrating()) {
      sim.after(sim::Duration{0.01}, poll);
    }
  };
  sim.after(sim::Duration{0.01}, poll);
  sim.run_until(2000.0);

  EXPECT_FALSE(done_fired);
  EXPECT_EQ(vm->host_machine(), src);  // the cutover never happened
  EXPECT_FALSE(vm->migrating());
  EXPECT_FALSE(vm->paused());
  ASSERT_EQ(cluster.migrator().history().size(), 1u);
  EXPECT_TRUE(cluster.migrator().history().front().aborted);
}

TEST_F(ClusterTest, ResourcesHelpers) {
  Resources a{1, 100, 10, 5};
  Resources b{2, 50, 20, 5};
  const Resources sum = a + b;
  EXPECT_DOUBLE_EQ(sum.cpu, 3);
  EXPECT_DOUBLE_EQ(sum.memory, 150);
  const Resources m = a.min(b);
  EXPECT_DOUBLE_EQ(m.cpu, 1);
  EXPECT_DOUBLE_EQ(m.memory, 50);
  EXPECT_NEAR(a.dominant_share(Resources{2, 400, 40, 40}), 0.5, 1e-12);
}

}  // namespace
}  // namespace hybridmr::cluster
