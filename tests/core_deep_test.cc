// Deeper tests of the core scheduler internals: the Arbiter's BestFit
// choice, profiler fallback paths, the estimator's record lifetime, IPS
// ownership and DRM/IPS interplay.
#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator.h"
#include "core/hybridmr.h"
#include "core/ips.h"
#include "core/profiler.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "workload/benchmarks.h"

namespace hybridmr::core {
namespace {

using cluster::Resources;
using harness::TestBed;

TEST(ArbiterTest, BestFitPicksTightestHost) {
  sim::Simulation sim(1);
  cluster::HybridCluster hc(sim);
  auto* roomy = hc.add_machine("roomy");
  auto* tight = hc.add_machine("tight");
  auto* full = hc.add_machine("full");
  // Load them differently.
  Resources light;
  light.cpu = 0.5;
  tight->add(
      std::make_shared<cluster::Workload>(light, cluster::Workload::kService));
  Resources heavy;
  heavy.cpu = 2.0;
  heavy.memory = 4000;
  full->add(
      std::make_shared<cluster::Workload>(heavy, cluster::Workload::kService));

  Estimator estimator;
  Arbiter arbiter(estimator);
  Resources needed;
  needed.cpu = 0.5;
  needed.memory = 512;
  cluster::Machine* pick = arbiter.best_fit_host(hc, needed, {});
  EXPECT_EQ(pick, tight);  // fits, with the least spare room
  // Excluding the tight host falls back to the roomy one.
  pick = arbiter.best_fit_host(hc, needed, {tight});
  EXPECT_EQ(pick, roomy);
  // Impossible demands find nothing.
  Resources impossible;
  impossible.cpu = 10;
  EXPECT_EQ(arbiter.best_fit_host(hc, impossible, {}), nullptr);
}

TEST(ProfilerFallback, ScaledMethodWhenNoMatchingAxis) {
  ProfileDatabase db;
  db.add({"Sort", true, 4, 2.0, 100, 60, 40});
  JobProfiler profiler(db, nullptr);
  // Different cluster AND data size: only the scaled fallback applies.
  const auto est =
      profiler.estimate(workload::sort_job().with_input_gb(4.0), true, 8);
  EXPECT_EQ(est.method, JobProfiler::Estimate::Method::kScaled);
  // Double data, double nodes: roughly the same map time, sub-linear
  // reduce benefit.
  EXPECT_NEAR(est.map_s, 60, 1e-6);
  EXPECT_GT(est.jct_s, est.map_s);
}

TEST(IpsOwnership, DrmSkipsIpsManagedAttempts) {
  TestBed bed;
  auto* host = bed.add_plain_machines(1)[0];
  auto* app_vm = bed.add_plain_vm(*host);
  auto* batch_vm = bed.add_plain_vm(*host);
  bed.hdfs().add_datanode(*batch_vm);
  bed.mr().add_tracker(*batch_vm);

  core::HybridMROptions options;
  options.enable_phase1 = false;
  HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(), bed.mr(),
                           options);
  hybrid.start();
  hybrid.deploy_interactive(interactive::olio_params(), 1100, app_vm);
  bed.mr().submit(workload::sort_job().with_input_gb(2));

  // At some point during the run an attempt must fall under IPS control,
  // and while it does, its caps must stay below the base slot share (the
  // DRM exempts IPS-owned attempts instead of lifting their throttles).
  bool any_owned = false;
  bool caps_respected = true;
  bed.sim().every(5, [&] {
    for (auto* a : bed.mr().running_attempts()) {
      if (hybrid.ips().owns(*a)) {
        any_owned = true;
        if (!(a->caps().cpu + a->caps().disk <
              a->base_caps().cpu + a->base_caps().disk)) {
          caps_respected = false;
        }
      }
    }
  });
  bed.run_until(400);
  EXPECT_TRUE(any_owned);
  EXPECT_TRUE(caps_respected);
  hybrid.stop();
}

TEST(PhaseOneTraining, PopulatesBothEnvironments) {
  ProfileDatabase db;
  JobProfiler profiler(db, make_simulated_runner());
  PhaseOneScheduler::Config config;
  config.training_cluster_sizes = {2};
  config.training_data_gbs = {0.5};
  PhaseOneScheduler phase1(profiler, config);
  phase1.ensure_trained(workload::dist_grep());
  EXPECT_EQ(db.for_job("DistGrep", false).size(), 1u);
  EXPECT_EQ(db.for_job("DistGrep", true).size(), 1u);
  // Virtual training ran on 2 * kVmsPerHost VM nodes.
  EXPECT_EQ(db.for_job("DistGrep", true)[0].cluster_size,
            2 * PhaseOneScheduler::kVmsPerHost);
  // Re-training is a no-op once profiles exist.
  phase1.ensure_trained(workload::dist_grep());
  EXPECT_EQ(db.size(), 2u);
}

TEST(HybridFacade, SubmitWithoutNativePartitionUsesAnyPool) {
  TestBed bed;
  bed.add_virtual_nodes(2, 2);  // no native trackers at all
  HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(), bed.mr());
  mapred::Job* job = hybrid.submit(workload::sort_job().with_input_gb(0.5));
  EXPECT_EQ(job->pool(), mapred::PlacementPool::kAny);
  bed.sim().run();
  EXPECT_TRUE(job->finished());
}

TEST(HybridFacade, PoolConstraintKeepsTasksInPartition) {
  TestBed bed;
  bed.add_native_nodes(2);
  bed.add_virtual_nodes(2, 2);
  mapred::Job* job = bed.mr().submit(
      workload::sort_job().with_input_gb(0.5),
      mapred::PlacementPool::kNativeOnly);
  bed.sim().run();
  ASSERT_TRUE(job->finished());
  for (const auto& t : job->maps()) {
    EXPECT_FALSE(t->output_site()->is_virtual());
  }
  for (const auto& t : job->reduces()) {
    EXPECT_FALSE(t->output_site()->is_virtual());
  }
}

TEST(OnlineProfiling, ProductionRunsFeedTheDatabase) {
  TestBed bed;
  bed.add_native_nodes(2);
  bed.add_virtual_nodes(2, 2);
  core::HybridMROptions options;
  options.phase1.training_cluster_sizes = {2};
  options.phase1.training_data_gbs = {0.5};
  HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(), bed.mr(),
                           options);
  mapred::Job* job = hybrid.submit(workload::dist_grep().with_input_gb(1));
  const std::size_t after_training = hybrid.profiler().database().size();
  bed.sim().run();
  ASSERT_TRUE(job->finished());
  // The production run added exactly one more profile entry, at the
  // production data size.
  EXPECT_EQ(hybrid.profiler().database().size(), after_training + 1);
  // Training ran at 0.5 GB, so the one 1 GB entry, in either environment,
  // is the production run.
  const auto& db = hybrid.profiler().database();
  auto runs = db.with_data_size("DistGrep", false, 1.0);
  const auto virtual_runs = db.with_data_size("DistGrep", true, 1.0);
  runs.insert(runs.end(), virtual_runs.begin(), virtual_runs.end());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_DOUBLE_EQ(runs.front().data_gb, 1.0);
  EXPECT_NEAR(runs.front().jct_s, job->jct(), 1e-9);
}

TEST(EstimatorRegistry, RetainOnlyDropsStaleModels) {
  TestBed bed;
  bed.add_native_nodes(2);
  Estimator estimator;
  bed.mr().submit(workload::sort_job().with_input_gb(0.5));
  bed.sim().every(2, [&] {
    for (auto* a : bed.mr().running_attempts()) {
      estimator.observe(*a, bed.sim().now());
    }
  });
  bed.sim().run_until(20);
  EXPECT_GT(estimator.tracked(), 0u);
  estimator.retain_only({});
  EXPECT_EQ(estimator.tracked(), 0u);
}

}  // namespace
}  // namespace hybridmr::core
