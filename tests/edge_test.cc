// Edge-case and failure-injection tests across the substrate.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "storage/hdfs.h"
#include "workload/benchmarks.h"

namespace hybridmr {
namespace {

using cluster::Resources;
using cluster::Workload;
using harness::TestBed;

TEST(WorkloadEdge, ServiceWorkloadNeverCompletes) {
  sim::Simulation sim(1);
  cluster::HybridCluster hc(sim);
  auto* m = hc.add_machine();
  Resources d;
  d.cpu = 0.5;
  auto w = std::make_shared<Workload>(d, Workload::kService);
  bool fired = false;
  w->on_complete = [&] { fired = true; };
  m->add(w);
  sim.at(1000, [&] { m->settle_now(); });  // run the clock to t=1000
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(w->done());
  EXPECT_FALSE(w->finite());
  EXPECT_DOUBLE_EQ(w->progress(), 0);
}

TEST(WorkloadEdge, CapsOnServiceWorkloadLimitAllocation) {
  sim::Simulation sim(1);
  cluster::HybridCluster hc(sim);
  auto* m = hc.add_machine();
  Resources d;
  d.cpu = 2.0;
  auto w = std::make_shared<Workload>(d, Workload::kService);
  m->add(w);
  EXPECT_NEAR(w->allocated().cpu, 2.0, 1e-9);
  Resources caps = Resources::unbounded();
  caps.cpu = 0.75;
  w->set_caps(caps);
  EXPECT_NEAR(w->allocated().cpu, 0.75, 1e-9);
  w->set_caps(Resources::unbounded());
  EXPECT_NEAR(w->allocated().cpu, 2.0, 1e-9);
}

TEST(WorkloadEdge, PowerOffStallsWork) {
  sim::Simulation sim(1);
  cluster::HybridCluster hc(sim);
  auto* m = hc.add_machine();
  auto w =
      std::make_shared<Workload>(Resources{1, 0, 0, 0}, sim::Duration{10.0});
  m->add(w);
  sim.at(3.0, [&] { m->set_powered(false); });
  sim.at(8.0, [&] { m->set_powered(true); });
  sim.run();
  EXPECT_NEAR(sim.now(), 15.0, 1e-9);  // 5 s outage inserted
  EXPECT_TRUE(w->done());
}

TEST(HdfsEdge, TransferToSelfIsLocalRead) {
  sim::Simulation sim(2);
  cluster::HybridCluster hc(sim);
  storage::Hdfs hdfs(sim, cluster::Calibration::standard());
  auto* m = hc.add_machine();
  bool done = false;
  hdfs.transfer(*m, *m, sim::MegaBytes{60}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);  // 60 MB at the 60 MB/s disk stream
}

TEST(HdfsEdge, CancelledFlowFiresNoCallback) {
  sim::Simulation sim(2);
  cluster::HybridCluster hc(sim);
  storage::Hdfs hdfs(sim, cluster::Calibration::standard());
  auto* a = hc.add_machine();
  auto* b = hc.add_machine();
  bool done = false;
  auto flow = hdfs.transfer(*a, *b, sim::MegaBytes{500}, [&] { done = true; });
  sim.at(1.0, [&] { flow.cancel(); });
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(a->members().empty());
  EXPECT_TRUE(b->members().empty());
}

TEST(MapReduceEdge, VmMigrationMidJobPreservesCorrectness) {
  // Live-migrate a Hadoop VM while its tasks run: the job must still
  // produce every task exactly once.
  TestBed bed;
  bed.add_virtual_nodes(3, 2);
  bed.add_plain_machines(1);
  mapred::Job* job = bed.mr().submit(workload::sort_job().with_input_gb(1));
  bed.sim().at(5.0, [&] {
    auto* vm = bed.cluster().vms().front().get();
    auto* spare = bed.cluster().machine("plain0");
    ASSERT_EQ(vm->name(), "vm0");
    ASSERT_NE(spare, nullptr);
    EXPECT_TRUE(bed.cluster().migrator().migrate(*vm, *spare));
  });
  bed.sim().run_until(10000);
  ASSERT_TRUE(job->finished());
  for (const auto& t : job->maps()) EXPECT_TRUE(t->completed());
  EXPECT_EQ(bed.cluster().migrator().history().size(), 1u);
}

TEST(MapReduceEdge, ZeroSelectivityJobSkipsShuffleWork) {
  TestBed bed;
  bed.add_native_nodes(2);
  auto spec = workload::dist_grep().with_input_gb(0.5);
  spec.map_selectivity = 0.0;  // nothing to shuffle at all
  mapred::Job* job = bed.mr().submit(spec);
  bed.sim().run();
  ASSERT_TRUE(job->finished());
  EXPECT_NEAR(job->shuffle_mb_per_reducer().value(), 0, 1e-9);
}

TEST(MapReduceEdge, ManySmallJobsDrainCompletely) {
  TestBed bed;
  bed.add_native_nodes(4);
  std::vector<mapred::Job*> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(
        bed.mr().submit(workload::dist_grep().with_input_gb(0.25)));
  }
  bed.sim().run();
  for (auto* j : jobs) EXPECT_TRUE(j->finished());
  EXPECT_EQ(bed.mr().active_jobs(), 0);
}

TEST(MapReduceEdge, RequeueLoopTerminates) {
  // Aggressively requeue random attempts; the job must still finish
  // (bans are forgiven when they would cover every tracker).
  TestBed bed;
  bed.add_native_nodes(3);
  mapred::Job* job = bed.mr().submit(workload::sort_job().with_input_gb(0.5));
  auto handle = bed.sim().every(3.0, [&] {
    auto attempts = bed.mr().running_attempts();
    if (!attempts.empty()) {
      bed.mr().requeue(*attempts.front(), /*ban_tracker=*/true);
    }
    if (job->finished()) bed.sim().stop();
  });
  bed.sim().run_until(20000);
  handle.cancel();
  bed.sim().run();
  EXPECT_TRUE(job->finished());
  EXPECT_GT(bed.mr().requeued(), 0);
}

TEST(InteractiveEdge, ZeroClientsIsHarmless) {
  sim::Simulation sim(4);
  cluster::HybridCluster hc(sim);
  auto* host = hc.add_machine();
  auto* vm = hc.add_vm(*host);
  interactive::InteractiveApp app(sim, *vm, interactive::rubis_params(), 0);
  app.start();
  sim.run_until(30);
  EXPECT_LE(app.response_time_s(), app.params().sla_s.value());
  EXPECT_GE(app.throughput_rps(), 0);
  app.stop();
}

TEST(InteractiveEdge, ClientSurgeAndRecovery) {
  sim::Simulation sim(4);
  cluster::HybridCluster hc(sim);
  auto* host = hc.add_machine();
  auto* vm = hc.add_vm(*host);
  interactive::InteractiveApp app(sim, *vm, interactive::rubis_params(), 300);
  app.start();
  sim.run_until(30);
  const double calm = app.response_time_s();
  app.set_clients(8000);
  sim.run_until(60);
  EXPECT_GT(app.response_time_s(), calm * 5);
  app.set_clients(300);
  sim.run_until(90);
  EXPECT_LT(app.response_time_s(), app.params().sla_s.value());
  app.stop();
}

TEST(MigrationEdge, DetachedVmRefusesMigration) {
  sim::Simulation sim(5);
  cluster::HybridCluster hc(sim);
  auto* a = hc.add_machine();
  auto* b = hc.add_machine();
  auto* vm = hc.add_vm(*a);
  a->detach_vm(vm);
  EXPECT_FALSE(hc.migrator().migrate(*vm, *b));
}

TEST(ClusterEdge, EnergyWindowBeforeCreationIsZero) {
  sim::Simulation sim(6);
  cluster::HybridCluster hc(sim);
  sim.run_until(100);
  auto* m = hc.add_machine();
  sim.at(200, [] {});
  sim.run();
  EXPECT_NEAR(m->energy().joules(0, 100).value(), 0, 1e-9);
  EXPECT_GT(m->energy().joules(100, 200).value(), 0);
}

}  // namespace
}  // namespace hybridmr
