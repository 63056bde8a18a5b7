// Tests for the workload generators and the harness utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/table.h"
#include "harness/testbed.h"
#include "workload/benchmarks.h"
#include "workload/mix.h"

namespace hybridmr {
namespace {

TEST(Benchmarks, AllSixPresent) {
  const auto all = workload::all_benchmarks();
  ASSERT_EQ(all.size(), 6u);
  const std::vector<std::string> names{"Twitter", "Wcount",   "PiEst",
                                       "DistGrep", "Sort",    "Kmeans"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(all[i].name, names[i]);
  }
}

TEST(Benchmarks, LookupIsCaseInsensitive) {
  EXPECT_EQ(workload::benchmark("sort").name, "Sort");
  EXPECT_EQ(workload::benchmark("KMEANS").name, "Kmeans");
  EXPECT_EQ(workload::benchmark("PiEst").name, "PiEst");
  EXPECT_THROW(workload::benchmark("terasort"), std::out_of_range);
}

TEST(Benchmarks, ResourceClassesMatchPaper) {
  EXPECT_EQ(workload::sort_job().job_class, mapred::JobClass::kIoBound);
  EXPECT_EQ(workload::dist_grep().job_class, mapred::JobClass::kIoBound);
  EXPECT_EQ(workload::pi_est().job_class, mapred::JobClass::kCpuBound);
  EXPECT_EQ(workload::kmeans().job_class, mapred::JobClass::kCpuBound);
  EXPECT_EQ(workload::twitter().job_class,
            mapred::JobClass::kMemoryIoBound);
  EXPECT_EQ(workload::wcount().job_class, mapred::JobClass::kMemoryIoBound);
  // CPU-bound jobs have much higher compute density than I/O-bound ones.
  EXPECT_GT(workload::kmeans().map_cpu_s_per_mb,
            3 * workload::sort_job().map_cpu_s_per_mb);
}

TEST(Benchmarks, WithHelpersDeriveSpecs) {
  const auto base = workload::sort_job();
  EXPECT_DOUBLE_EQ(base.with_input_gb(3).input_gb, 3);
  EXPECT_NEAR(base.with_input_gb(3).input_mb().value(), 3072, 1e-9);
}

TEST(Mix, RespectsInteractiveFraction) {
  sim::Rng rng(5);
  workload::MixOptions o;
  o.total_entries = 20;
  o.interactive_fraction = 0.5;
  const auto entries = workload::make_mix(rng, o);
  ASSERT_EQ(entries.size(), 20u);
  int interactive = 0;
  for (const auto& e : entries) {
    if (!e.is_batch) ++interactive;
  }
  EXPECT_EQ(interactive, 10);
}

TEST(Mix, ArrivalsSortedWithinHorizon) {
  sim::Rng rng(9);
  workload::MixOptions o;
  o.total_entries = 15;
  o.horizon_s = 100;
  const auto entries = workload::make_mix(rng, o);
  EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end(),
                             [](const auto& a, const auto& b) {
                               return a.arrival_s < b.arrival_s;
                             }));
  for (const auto& e : entries) {
    EXPECT_GE(e.arrival_s, 0);
    EXPECT_LT(e.arrival_s, 100);
  }
}

TEST(Mix, WmixPresets) {
  EXPECT_DOUBLE_EQ(workload::wmix_options(1).interactive_fraction, 0.5);
  EXPECT_DOUBLE_EQ(workload::wmix_options(2).interactive_fraction, 0.2);
  EXPECT_DOUBLE_EQ(workload::wmix_options(3).interactive_fraction, 0.8);
  EXPECT_THROW(workload::wmix_options(4), std::out_of_range);
}

TEST(Mix, BatchScaleAppliedToJobs) {
  sim::Rng rng(3);
  workload::MixOptions o;
  o.total_entries = 8;
  o.interactive_fraction = 0;
  o.batch_input_scale = 0.5;
  const auto entries = workload::make_mix(rng, o);
  const auto base = workload::all_benchmarks();
  for (const auto& e : entries) {
    ASSERT_TRUE(e.is_batch);
    // Scaled relative to some benchmark's natural size.
    bool matches = false;
    for (const auto& b : base) {
      if (e.job.name == b.name) {
        matches = true;
        EXPECT_NEAR(e.job.input_gb, b.input_gb * 0.5, 1e-9);
      }
    }
    EXPECT_TRUE(matches);
  }
}

TEST(TablePrinter, AlignsColumnsAndFormats) {
  harness::Table table({"name", "value"});
  table.row({"alpha", harness::Table::num(1.234, 2)});
  table.row({"b", harness::Table::pct(0.5, 0)});
  std::ostringstream out;
  table.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("50%"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TestBedShapes, PartitionedVmShapesMatchPaperAtDensityTwo) {
  harness::TestBed bed;
  const auto [vcpus, memory] = bed.partitioned_vm_shape(2);
  EXPECT_DOUBLE_EQ(vcpus.value(), 1.0);     // the paper's 1 vCPU guest
  EXPECT_DOUBLE_EQ(memory.value(), 1024);   // ... with 1 GB of memory
  const auto [v1, m1] = bed.partitioned_vm_shape(1);
  EXPECT_DOUBLE_EQ(v1.value(), 2.0);
  const auto [v4, m4] = bed.partitioned_vm_shape(4);
  EXPECT_DOUBLE_EQ(v4.value(), 1.0);  // work-conserving credit scheduler minimum
  EXPECT_DOUBLE_EQ(m4.value(), 1024); // full overcommit, like the paper's 4x1GB
}

TEST(TestBedShapes, NodeRegistrationCounts) {
  harness::TestBed bed;
  std::size_t registered = bed.add_native_nodes(3).size();
  registered += bed.add_virtual_nodes(2, 2).size();
  registered += bed.add_dom0_nodes(1).size();
  EXPECT_EQ(registered, 3u + 4u + 1u);
  EXPECT_EQ(bed.mr().trackers().size(), 8u);
  EXPECT_EQ(bed.hdfs().datanodes().size(), 8u);
  // Split nodes add one storage VM (datanode only) plus compute-only
  // tracker VMs.
  bed.add_split_nodes(1, 2);
  EXPECT_EQ(bed.mr().trackers().size(), 10u);
  EXPECT_EQ(bed.hdfs().datanodes().size(), 9u);
}

}  // namespace
}  // namespace hybridmr
