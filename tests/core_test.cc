// Tests for HybridMR's core: profiler (Algorithm 1), Phase I placement
// (Algorithm 2), Estimator models, DRM and IPS behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator.h"
#include "core/hybridmr.h"
#include "core/phase1.h"
#include "core/profiler.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "workload/benchmarks.h"

namespace hybridmr::core {
namespace {

using harness::TestBed;

// ----------------------------------------------------------- ProfileDb ----

TEST(ProfileDatabase, ExactLookup) {
  ProfileDatabase db;
  db.add({"Sort", true, 8, 2.0, 100, 60, 40});
  db.add({"Sort", false, 8, 2.0, 80, 50, 30});
  auto hit = db.lookup("Sort", true, 8, 2.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->jct_s, 100);
  EXPECT_FALSE(db.lookup("Sort", true, 4, 2.0).has_value());
  EXPECT_FALSE(db.lookup("Sort", true, 8, 3.0).has_value());
  EXPECT_FALSE(db.lookup("Kmeans", true, 8, 2.0).has_value());
  // 2% tolerance on data size.
  EXPECT_TRUE(db.lookup("Sort", true, 8, 2.01).has_value());
}

TEST(ProfileDatabase, FiltersByClusterAndData) {
  ProfileDatabase db;
  db.add({"Sort", true, 4, 1.0, 50, 30, 20});
  db.add({"Sort", true, 4, 2.0, 90, 55, 35});
  db.add({"Sort", true, 8, 1.0, 30, 18, 12});
  EXPECT_EQ(db.with_cluster_size("Sort", true, 4).size(), 2u);
  EXPECT_EQ(db.with_data_size("Sort", true, 1.0).size(), 2u);
  EXPECT_EQ(db.for_job("Sort", true).size(), 3u);
  EXPECT_TRUE(db.for_job("Sort", false).empty());
}

// ------------------------------------------------------------ Profiler ----

TEST(JobProfiler, ExactMatchReturnsStoredValue) {
  ProfileDatabase db;
  db.add({"Sort", true, 8, 2.0, 100, 60, 40});
  JobProfiler profiler(db, nullptr);
  const auto est =
      profiler.estimate(workload::sort_job().with_input_gb(2.0), true, 8);
  EXPECT_EQ(est.method, JobProfiler::Estimate::Method::kExact);
  EXPECT_DOUBLE_EQ(est.jct_s, 100);
}

TEST(JobProfiler, LinearDataExtrapolation) {
  // JCT linear in data size (paper Fig. 5(d)): 1GB->60s, 2GB->100s, so
  // 4GB should come out near 180s.
  ProfileDatabase db;
  db.add({"Sort", true, 8, 1.0, 60, 40, 20});
  db.add({"Sort", true, 8, 2.0, 100, 65, 35});
  JobProfiler profiler(db, nullptr);
  const auto est =
      profiler.estimate(workload::sort_job().with_input_gb(4.0), true, 8);
  EXPECT_EQ(est.method, JobProfiler::Estimate::Method::kDataExtrapolation);
  EXPECT_NEAR(est.jct_s, 180, 1e-6);
}

TEST(JobProfiler, ClusterExtrapolationUsesPhases) {
  // Map time follows ~1/c; build profiles at c=2,4,8 and ask for c=16.
  ProfileDatabase db;
  for (int c : {2, 4, 8}) {
    ProfileEntry e{"Sort", true, c, 2.0, 0, 0, 0};
    e.map_s = 10 + 160.0 / c;
    e.reduce_s = 20 + 40.0 / c;
    e.jct_s = e.map_s + e.reduce_s;
    db.add(e);
  }
  JobProfiler profiler(db, nullptr);
  const auto est =
      profiler.estimate(workload::sort_job().with_input_gb(2.0), true, 16);
  EXPECT_EQ(est.method, JobProfiler::Estimate::Method::kClusterExtrapolation);
  EXPECT_NEAR(est.map_s, 10 + 10, 2.0);
  EXPECT_GT(est.jct_s, est.map_s);
  EXPECT_LT(est.jct_s, 60);
}

TEST(JobProfiler, TrainingPopulatesDatabase) {
  ProfileDatabase db;
  JobProfiler profiler(db, make_simulated_runner());
  const std::vector<int> sizes{2, 4};
  const std::vector<double> data{0.25, 0.5};
  profiler.train(workload::sort_job(), false, sizes, data);
  EXPECT_EQ(db.size(), 4u);
  for (const auto& e : db.entries()) {
    EXPECT_GT(e.jct_s, 0);
    EXPECT_GT(e.map_s, 0);
    EXPECT_GT(e.reduce_s, 0);
    EXPECT_NEAR(e.jct_s, e.map_s + e.reduce_s, 1.0);
  }
}

TEST(JobProfiler, EstimationErrorIsModest) {
  // The paper reports ~10.8% mean profiling error (Fig. 6(a)). Train on
  // small data / small clusters and check the prediction for a larger run
  // against the ground-truth simulation.
  ProfileDatabase db;
  JobProfiler profiler(db, make_simulated_runner());
  const auto spec = workload::sort_job();
  const std::vector<int> sizes{4};
  const std::vector<double> data{0.5, 1.0, 2.0};
  profiler.train(spec, false, sizes, data);

  const auto est = profiler.estimate(spec.with_input_gb(4.0), false, 4);
  ASSERT_TRUE(est.valid());
  const auto truth = make_simulated_runner()(spec, false, 4, 4.0);
  const double err = std::abs(est.jct_s - truth.jct_s) / truth.jct_s;
  EXPECT_LT(err, 0.30);
}

// -------------------------------------------------------------- Phase I ----

TEST(PhaseOne, IoHeavyJobGoesNative) {
  ProfileDatabase db;
  // Virtual is 40% slower: significant overhead.
  db.add({"Sort", false, 4, 20.0, 100, 60, 40});
  db.add({"Sort", true, 8, 20.0, 140, 90, 50});
  JobProfiler profiler(db, nullptr);
  PhaseOneScheduler::Config config;
  config.native_cluster_size = 4;
  config.virtual_cluster_size = 8;
  config.auto_train = false;
  PhaseOneScheduler phase1(profiler, config);
  const auto d = phase1.place(workload::sort_job());
  EXPECT_EQ(d.pool, mapred::PlacementPool::kNativeOnly);
  EXPECT_GT(d.overhead, 0.15);
}

TEST(PhaseOne, CpuJobStaysVirtual) {
  ProfileDatabase db;
  db.add({"Kmeans", false, 4, 10.0, 100, 80, 20});
  db.add({"Kmeans", true, 8, 10.0, 106, 84, 22});
  JobProfiler profiler(db, nullptr);
  PhaseOneScheduler::Config config;
  config.native_cluster_size = 4;
  config.virtual_cluster_size = 8;
  config.auto_train = false;
  PhaseOneScheduler phase1(profiler, config);
  const auto d = phase1.place(workload::kmeans());
  EXPECT_EQ(d.pool, mapred::PlacementPool::kVirtualOnly);
  EXPECT_LT(d.overhead, 0.15);
}

TEST(PhaseOne, DesiredJctRuleOverridesThreshold) {
  ProfileDatabase db;
  db.add({"Sort", false, 4, 20.0, 100, 60, 40});
  db.add({"Sort", true, 8, 20.0, 108, 66, 42});  // only 8% overhead
  JobProfiler profiler(db, nullptr);
  PhaseOneScheduler::Config config;
  config.native_cluster_size = 4;
  config.virtual_cluster_size = 8;
  config.auto_train = false;
  PhaseOneScheduler phase1(profiler, config);
  mapred::JobSpec spec = workload::sort_job();
  // SLO tighter than the virtual estimate -> native despite low overhead.
  spec.desired_jct_s = sim::Duration{105};
  auto d = phase1.place(spec);
  EXPECT_EQ(d.pool, mapred::PlacementPool::kNativeOnly);
  // Loose SLO -> virtual.
  spec.desired_jct_s = sim::Duration{200};
  d = phase1.place(spec);
  EXPECT_EQ(d.pool, mapred::PlacementPool::kVirtualOnly);
}

TEST(PhaseOne, NoProfilesDefaultsToVirtual) {
  ProfileDatabase db;
  JobProfiler profiler(db, nullptr);
  PhaseOneScheduler::Config config;
  config.auto_train = false;
  PhaseOneScheduler phase1(profiler, config);
  const auto d = phase1.place(workload::sort_job());
  EXPECT_EQ(d.pool, mapred::PlacementPool::kVirtualOnly);
}

// ------------------------------------------------------------ Estimator ----

TEST(TaskModelTest, AnalyticRateForFewSamples) {
  TaskModel model;
  TaskSample s;
  s.time = 0;
  s.progress = 0.1;
  s.rate = 0.01;
  s.demand = {1.0, 400, 0, 0};
  s.alloc = {1.0, 400, 0, 0};
  model.add(s);
  // Halved CPU -> roughly halved predicted rate.
  cluster::Resources half = s.alloc;
  half.cpu = 0.5;
  EXPECT_NEAR(model.predict_rate(half, s.demand), 0.005, 1e-9);
  EXPECT_FALSE(model.bottleneck().has_value());
}

TEST(TaskModelTest, DetectsBottleneckAndDeficit) {
  TaskModel model;
  TaskSample s;
  s.demand = {1.0, 400, 40, 0};
  s.alloc = {1.0, 400, 10, 0};  // disk-starved
  s.rate = 0.004;
  model.add(s);
  auto b = model.bottleneck();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, cluster::ResourceKind::kDisk);
  EXPECT_NEAR(model.deficit().disk, 30, 1e-9);
  EXPECT_DOUBLE_EQ(model.deficit().cpu, 0);
}

TEST(EstimatorTest, ObservationsBuildRates) {
  TestBed bed;
  bed.add_native_nodes(2);
  Estimator estimator;
  mapred::Job* job = bed.mr().submit(workload::sort_job().with_input_gb(0.5));
  bool positive_rate = false;
  std::size_t tracked_peak = 0;
  bed.sim().every(2.0, [&] {
    for (auto* a : bed.mr().running_attempts()) {
      estimator.observe(*a, bed.sim().now());
      const TaskModel* m = estimator.model(a);
      if (m != nullptr && !m->empty() && m->last().rate > 0) {
        positive_rate = true;
      }
    }
    tracked_peak = std::max(tracked_peak, estimator.tracked());
  });
  bed.sim().run_until(30);
  EXPECT_GT(tracked_peak, 0u);
  EXPECT_TRUE(positive_rate);
  (void)job;
}

// ------------------------------------------------------------------ DRM ----

TEST(Drm, LiftsStaticCapsOnManagedResources) {
  TestBed bed;
  bed.add_native_nodes(2);
  Estimator estimator;
  DrmOptions options;
  DynamicResourceManager drm(bed.sim(), bed.mr(), bed.cluster(), estimator,
                             options);
  bed.mr().submit(workload::sort_job().with_input_gb(0.5));
  bed.sim().run_until(5);
  auto attempts = bed.mr().running_attempts();
  ASSERT_FALSE(attempts.empty());
  // Static Hadoop caps in force before the DRM touches anything.
  EXPECT_TRUE(std::isfinite(attempts.front()->caps().disk));
  drm.epoch();
  EXPECT_TRUE(std::isinf(attempts.front()->caps().disk));
  EXPECT_TRUE(std::isinf(attempts.front()->caps().memory));
}

TEST(Drm, UnmanagedResourcesKeepStaticCaps) {
  TestBed bed;
  bed.add_native_nodes(2);
  Estimator estimator;
  DrmOptions options;
  options.manage_io = false;
  options.manage_memory = true;
  options.manage_cpu = false;
  DynamicResourceManager drm(bed.sim(), bed.mr(), bed.cluster(), estimator,
                             options);
  bed.mr().submit(workload::sort_job().with_input_gb(0.5));
  bed.sim().run_until(5);
  auto attempts = bed.mr().running_attempts();
  ASSERT_FALSE(attempts.empty());
  drm.epoch();
  EXPECT_TRUE(std::isfinite(attempts.front()->caps().disk));
  EXPECT_TRUE(std::isinf(attempts.front()->caps().memory));
}

TEST(Drm, MemoryAdmissionPausesOversubscribedTasks) {
  // Two 800 MB tasks per 1 GB VM: the DRM should serialize them.
  TestBed bed;
  bed.add_virtual_nodes(1, 2);
  Estimator estimator;
  DrmOptions options;
  DynamicResourceManager drm(bed.sim(), bed.mr(), bed.cluster(), estimator,
                             options);
  auto spec = workload::twitter().with_input_gb(0.5);  // 4 x 800MB tasks
  mapred::Job* job = bed.mr().submit(spec);
  drm.start();
  while (!job->finished()) bed.sim().run_until(bed.sim().now() + 60);
  drm.stop();
  // At some epoch both 800 MB tasks were computing inside the 1 GB VM and
  // the admission policy serialized them.
  EXPECT_GE(drm.lifetime_stats().memory_pauses, 1);
  EXPECT_GE(drm.lifetime_stats().memory_resumes, 1);
}

TEST(Drm, ManagementImprovesMemoryHeavyJct) {
  // Fig. 8(b) mechanics: Twitter on a small virtual cluster with and
  // without the Phase II DRM.
  auto spec = workload::twitter().with_input_gb(0.5);
  spec.num_reducers = 4;

  TestBed plain;
  plain.add_virtual_nodes(2, 2);
  const double jct_default = plain.run_job(spec);

  TestBed managed;
  managed.add_virtual_nodes(2, 2);
  Estimator estimator;
  DrmOptions options;
  DynamicResourceManager drm(managed.sim(), managed.mr(), managed.cluster(),
                             estimator, options);
  drm.start();
  mapred::Job* job = managed.mr().submit(spec);
  while (!job->finished()) managed.sim().run_until(managed.sim().now() + 60);
  drm.stop();
  EXPECT_LT(job->jct(), jct_default);
}

// ------------------------------------------------------------------ IPS ----

TEST(Ips, ThrottlesInterferersAndRestores) {
  TestBed bed;
  // One host: an interactive VM plus a batch VM.
  auto* host = bed.add_plain_machines(1)[0];
  auto* app_vm = bed.add_plain_vm(*host);
  auto* batch_vm = bed.add_plain_vm(*host);
  bed.hdfs().add_datanode(*batch_vm);
  bed.mr().add_tracker(*batch_vm);

  interactive::SlaMonitor monitor;
  interactive::InteractiveApp app(bed.sim(), *app_vm,
                                  interactive::olio_params(), 1000);
  app.start();
  monitor.track(app);

  Estimator estimator;
  IpsOptions options;
  options.allow_vm_migration = false;
  InterferencePreventionSystem ips(bed.sim(), bed.mr(), bed.cluster(),
                                   monitor, estimator, options);
  ips.start();

  bed.mr().submit(workload::sort_job().with_input_gb(1.0));
  bed.sim().run_until(400);
  // The batch job hammers the shared disk; the IPS must have acted.
  EXPECT_GT(ips.stats().violations_seen, 0);
  EXPECT_GT(ips.stats().throttles, 0);
  // And the app must end healthy.
  EXPECT_LT(app.response_time_s(), app.params().sla_s.value());
  app.stop();
  ips.stop();
}

TEST(Ips, KeepsSlaThatDefaultSchedulingViolates) {
  auto run_scenario = [](bool with_ips) {
    TestBed bed;
    auto* host = bed.add_plain_machines(1)[0];
    auto* app_vm = bed.add_plain_vm(*host);
    auto* batch_vm = bed.add_plain_vm(*host);
    bed.hdfs().add_datanode(*batch_vm);
    bed.mr().add_tracker(*batch_vm);

    interactive::SlaMonitor monitor;
    interactive::InteractiveApp app(bed.sim(), *app_vm,
                                    interactive::olio_params(), 1000);
    app.start();
    monitor.track(app);

    Estimator estimator;
    InterferencePreventionSystem ips(bed.sim(), bed.mr(), bed.cluster(),
                                     monitor, estimator, IpsOptions{});
    if (with_ips) ips.start();
    bed.mr().submit(workload::sort_job().with_input_gb(4.0));
    bed.sim().run_until(300);
    const double violation_fraction =
        interactive::SlaMonitor::violation_fraction(app, 20, 300);
    app.stop();
    return violation_fraction;
  };
  const double without = run_scenario(false);
  const double with = run_scenario(true);
  EXPECT_GT(without, 0.15);
  EXPECT_LT(with, without * 0.7);
}

// ------------------------------------------------------------- Facade ----

TEST(HybridMr, Phase1SteersJobsByOverhead) {
  TestBed bed;
  bed.add_native_nodes(4);
  bed.add_virtual_nodes(4, 2);
  core::HybridMROptions options;
  options.phase1.training_cluster_sizes = {2};
  options.phase1.training_data_gbs = {0.25, 0.5};
  HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(), bed.mr(),
                           options);
  hybrid.start();

  hybrid.submit(workload::sort_job().with_input_gb(1.0));
  const auto sort_decision = hybrid.last_decision();
  hybrid.submit(workload::pi_est().with_input_gb(0.5));
  const auto pi_decision = hybrid.last_decision();

  // Relative ordering must hold: the I/O-heavy job sees more overhead.
  EXPECT_GT(sort_decision.overhead, pi_decision.overhead);
  bed.sim().run_until(2000);
  hybrid.stop();
  for (const auto& job : bed.mr().jobs()) {
    EXPECT_TRUE(job->finished());
  }
}

TEST(HybridMr, DeploysInteractiveOnLeastLoadedVm) {
  TestBed bed;
  bed.add_virtual_nodes(2, 2);
  HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(), bed.mr());
  auto& app = hybrid.deploy_interactive(interactive::rubis_params(), 500);
  EXPECT_TRUE(app.running());
  EXPECT_TRUE(app.site().is_virtual());
  EXPECT_EQ(hybrid.sla_monitor().apps().size(), 1u);
  bed.sim().run_until(30);
  EXPECT_LT(app.response_time_s(), 2.0);
}

TEST(HybridMr, NodeCountsReflectTrackers) {
  TestBed bed;
  bed.add_native_nodes(3);
  bed.add_virtual_nodes(2, 2);
  HybridMRScheduler hybrid(bed.sim(), bed.cluster(), bed.hdfs(), bed.mr());
  EXPECT_EQ(hybrid.native_nodes(), 3);
  EXPECT_EQ(hybrid.virtual_nodes(), 4);
}

}  // namespace
}  // namespace hybridmr::core
