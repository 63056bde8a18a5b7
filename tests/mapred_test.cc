// Tests for the MapReduce engine: job lifecycle, scheduling policies,
// speculation, deployment shapes, and the equivalence pins (indexed
// offer-set dispatch vs the digests of the naive tracker re-scan, the
// fair-order index vs the per-pick sort it replaced).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "harness/testbed.h"
#include "mapred/engine.h"
#include "mapred/scheduler.h"
#include "sim/simulation.h"
#include "storage/hdfs.h"
#include "telemetry/telemetry.h"
#include "workload/benchmarks.h"

namespace hybridmr::mapred {
namespace {

using harness::TestBed;

JobSpec small_sort(double gb = 1.0) {
  return workload::sort_job().with_input_gb(gb);
}

TEST(MapReduce, SortCompletesOnNativeCluster) {
  TestBed bed;
  bed.add_native_nodes(4);
  const double jct = bed.run_job(small_sort());
  EXPECT_GT(jct, 5.0);
  EXPECT_LT(jct, 600.0);
}

TEST(MapReduce, JobPhasesAreOrdered) {
  TestBed bed;
  bed.add_native_nodes(4);
  Job* job = bed.mr().submit(small_sort());
  bed.sim().run();
  ASSERT_TRUE(job->finished());
  EXPECT_GE(job->submit_time(), 0);
  EXPECT_GT(job->map_phase_end(), job->submit_time());
  EXPECT_GT(job->finish_time(), job->map_phase_end());
  EXPECT_NEAR(job->jct(),
              job->map_phase_seconds() + job->reduce_phase_seconds(), 1e-9);
}

TEST(MapReduce, TaskCountsMatchSpec) {
  TestBed bed;
  bed.add_native_nodes(4);
  Job* job = bed.mr().submit(small_sort(1.0));  // 1024 MB -> 8 blocks
  bed.sim().run();
  EXPECT_EQ(job->maps().size(), 8u);
  // Hadoop's rule: 0.95 x total reduce slots (4 trackers x 2 slots).
  EXPECT_EQ(job->reduces().size(), 7u);
  EXPECT_EQ(job->maps_done(), 8);
  EXPECT_EQ(job->reduces_done(), 7);
  for (const auto& t : job->maps()) {
    EXPECT_TRUE(t->completed());
    EXPECT_GT(t->duration().value(), 0);
    EXPECT_NE(t->output_site(), nullptr);
  }
}

TEST(MapReduce, ExplicitReducerCountHonored) {
  TestBed bed;
  bed.add_native_nodes(4);
  JobSpec spec = small_sort();
  spec.num_reducers = 2;
  Job* job = bed.mr().submit(spec);
  bed.sim().run();
  EXPECT_EQ(job->reduces().size(), 2u);
  EXPECT_TRUE(job->finished());
}

// A submit the cluster cannot run throws in every build, before any job or
// input file exists, instead of crashing or hanging the simulation.
TEST(MapReduce, SubmitRejectsUnrunnableJobs) {
  {  // A TaskTracker, but no datanode to stage the input on.
    TestBed bed;
    bed.mr().add_tracker(*bed.cluster().add_machine());
    EXPECT_THROW(bed.mr().submit(small_sort()), std::invalid_argument);
    EXPECT_TRUE(bed.mr().jobs().empty());
  }
  {  // A datanode, but no TaskTracker to run the tasks.
    TestBed bed;
    bed.hdfs().add_datanode(*bed.cluster().add_machine());
    EXPECT_THROW(bed.mr().submit(small_sort()), std::invalid_argument);
    EXPECT_TRUE(bed.mr().jobs().empty());
  }
  {  // A negative input size.
    TestBed bed;
    bed.add_native_nodes(2);
    EXPECT_THROW(bed.mr().submit(small_sort().with_input_gb(-1)),
                 std::invalid_argument);
    EXPECT_TRUE(bed.mr().jobs().empty());
  }
}

TEST(MapReduce, MoreNodesFinishFaster) {
  TestBed small;
  small.add_native_nodes(2);
  const double jct_small = small.run_job(small_sort(2.0));

  TestBed large;
  large.add_native_nodes(8);
  const double jct_large = large.run_job(small_sort(2.0));
  EXPECT_LT(jct_large, jct_small);
}

TEST(MapReduce, LargerInputTakesLonger) {
  TestBed bed;
  bed.add_native_nodes(4);
  const double jct1 = bed.run_job(small_sort(1.0));
  TestBed bed2;
  bed2.add_native_nodes(4);
  const double jct2 = bed2.run_job(small_sort(4.0));
  EXPECT_GT(jct2, jct1 * 2);
}

TEST(MapReduce, VirtualClusterSlowerThanNative) {
  // The headline substrate behaviour behind Fig. 1(a): same physical
  // hardware (4 PMs), I/O-bound job, virtual pays the virtualization taxes.
  auto spec = small_sort(2.0);
  spec.num_reducers = 4;
  TestBed native;
  native.add_native_nodes(4);
  const double native_jct = native.run_job(spec);

  TestBed virt;
  virt.add_virtual_nodes(/*hosts=*/4, /*vms_per_host=*/2);
  const double virt_jct = virt.run_job(spec);
  EXPECT_GT(virt_jct, native_jct * 1.02);
  EXPECT_LT(virt_jct, native_jct * 1.8);
}

TEST(MapReduce, CpuBoundSuffersLessVirtualizationPenalty) {
  auto cpu_spec = workload::kmeans().with_input_gb(1.0);
  cpu_spec.num_reducers = 4;
  auto io_spec = small_sort(1.0);
  io_spec.num_reducers = 4;

  TestBed n1;
  n1.add_native_nodes(4);
  const double cpu_native = n1.run_job(cpu_spec);
  TestBed n2;
  n2.add_native_nodes(4);
  const double io_native = n2.run_job(io_spec);

  TestBed v1;
  v1.add_virtual_nodes(4, 2);
  const double cpu_virt = v1.run_job(cpu_spec);
  TestBed v2;
  v2.add_virtual_nodes(4, 2);
  const double io_virt = v2.run_job(io_spec);

  const double cpu_penalty = cpu_virt / cpu_native - 1.0;
  const double io_penalty = io_virt / io_native - 1.0;
  EXPECT_LT(cpu_penalty, io_penalty);
}

TEST(MapReduce, Dom0NearNativePerformance) {
  TestBed native;
  native.add_native_nodes(4);
  const double native_jct = native.run_job(small_sort(2.0));

  TestBed dom0;
  dom0.add_dom0_nodes(4);
  const double dom0_jct = dom0.run_job(small_sort(2.0));
  EXPECT_LT(dom0_jct, native_jct * 1.08);  // paper: < 5% average overhead
}

TEST(MapReduce, FairSchedulerSharesAcrossJobs) {
  // Submit a long job then a short one; under FIFO the short job waits for
  // the long job's maps, under Fair it interleaves and finishes much
  // sooner.
  auto long_job = small_sort(4.0);
  auto short_job = workload::dist_grep().with_input_gb(0.5);

  auto run_pair = [&](const std::string& policy) {
    TestBed::Options o;
    o.scheduler = policy;
    TestBed bed(o);
    bed.add_native_nodes(4);
    auto jcts = bed.run_jobs({long_job, short_job});
    return jcts[1];  // short job JCT
  };
  const double fifo_short = run_pair("fifo");
  const double fair_short = run_pair("fair");
  EXPECT_LT(fair_short, fifo_short);
}

TEST(MapReduce, MultipleJobsAllComplete) {
  TestBed bed;
  bed.add_native_nodes(6);
  std::vector<JobSpec> specs;
  for (const auto& s : workload::all_benchmarks()) {
    specs.push_back(s.with_input_gb(std::min(s.input_gb, 1.0)));
  }
  const auto jcts = bed.run_jobs(specs);
  for (double jct : jcts) EXPECT_GT(jct, 0);
}

TEST(MapReduce, SpeculativeExecutionRescuesStragglers) {
  TestBed bed;
  auto nodes = bed.add_native_nodes(4);
  // Submit, then throttle one node's first compute workload hard to create
  // a straggler once tasks are running.
  Job* job = bed.mr().submit(workload::kmeans().with_input_gb(1.0));
  bed.sim().at(20.0, [&] {
    auto attempts = bed.mr().running_attempts();
    if (!attempts.empty()) {
      cluster::Resources caps = cluster::Resources::unbounded();
      caps.cpu = 0.02;
      attempts.front()->set_caps(caps);
    }
  });
  bed.sim().run_until(5000);
  EXPECT_TRUE(job->finished());
  EXPECT_GE(bed.mr().speculative_launched(), 1);
}

TEST(MapReduce, SpeculationLaunchesExactlyThePinnedCopies) {
  // Many (job, type) groups whose attempts never reach the maturity bar
  // (PiEst's ~10 s maps, short DistGrep jobs) beside two capped stragglers.
  // The scan only evaluates groups with a mature attempt; this pins the
  // copies it launches — label, target site and launch time — so skipping
  // the immature groups provably changes nothing.
  TestBed bed;
  bed.add_native_nodes(4);
  std::vector<Job*> straggling;
  for (int i = 0; i < 2; ++i) {
    straggling.push_back(
        bed.mr().submit(workload::kmeans().with_input_gb(1.0)));
  }
  for (int i = 0; i < 24; ++i) {
    bed.sim().at(2.0 + 4.0 * i, [&bed, i] {
      bed.mr().submit(i % 12 == 0 ? workload::pi_est()
                                  : workload::dist_grep().with_input_gb(0.25));
    });
  }
  // Throttle one running attempt of each Kmeans job hard, the first at
  // t=20 and the second once its maps are running.
  for (int i = 0; i < 2; ++i) {
    bed.sim().at(20.0 + 60.0 * i, [&bed, job = straggling[i]] {
      cluster::Resources caps = cluster::Resources::unbounded();
      caps.cpu = 0.02;
      for (TaskAttempt* a : bed.mr().running_attempts()) {
        if (&a->task().job() == job) {
          a->set_caps(caps);
          return;
        }
      }
      FAIL() << "no running attempt to throttle";
    });
  }
  bed.sim().run_until(5000);

  std::vector<std::string> copies;
  for (const auto& job : bed.mr().jobs()) {
    EXPECT_TRUE(job->succeeded());
    for (const auto* tasks : {&job->maps(), &job->reduces()}) {
      for (const auto& t : *tasks) {
        if (!t->speculative_launched) continue;
        ASSERT_EQ(t->attempts().size(), 2u);  // no requeues here
        const TaskAttempt& copy = *t->attempts()[1];
        char at[32];
        std::snprintf(at, sizeof at, "%.3f", copy.started_at());
        copies.push_back(copy.label() + "@" + copy.site().name() + "@" + at);
      }
    }
  }
  EXPECT_EQ(static_cast<int>(copies.size()), bed.mr().speculative_launched());
  // Recorded on the scan that walked every task of every live job.
  const std::vector<std::string> pinned = {"Kmeans-j0-m1@native2@580.000",
                                           "Kmeans-j1-m0@native2@580.000"};
  EXPECT_EQ(copies, pinned);
}

TEST(MapReduce, RequeueBansTrackerAndStillFinishes) {
  TestBed bed;
  bed.add_native_nodes(4);
  Job* job = bed.mr().submit(small_sort(1.0));
  bed.sim().at(5.0, [&] {
    auto attempts = bed.mr().running_attempts();
    if (!attempts.empty()) {
      bed.mr().requeue(*attempts.front(), /*ban_tracker=*/true);
    }
  });
  bed.sim().run();
  EXPECT_TRUE(job->finished());
  EXPECT_GE(bed.mr().requeued(), 1);
}

// IPS-style evictions ban a job's only map from every tracker still able
// to run it; a tracker loss shrinks that set, before or after the bans.
// The bans must be forgiven (all but the latest, for a grace period) or
// the job starves: bans on a lost tracker, or on one the job cannot use,
// do not count toward covering the live ones.
TEST(MapReduce, BanOnEveryLiveTrackerIsForgiven) {
  enum class Order { kLossThenBan, kBanThenLoss, kBanThenLossWhilePending };
  for (const Order order : {Order::kLossThenBan, Order::kBanThenLoss,
                            Order::kBanThenLossWhilePending}) {
    TestBed bed;
    std::vector<cluster::ExecutionSite*> sites = bed.add_native_nodes(
        order == Order::kBanThenLossWhilePending ? 2 : 3);
    if (order == Order::kBanThenLossWhilePending) {
      // A reduce-only tracker: live and unbanned, yet no map can run there.
      cluster::Machine* reducer = bed.add_plain_machines(1).front();
      bed.mr().add_tracker(*reducer, /*map_slots=*/0, /*reduce_slots=*/2);
      sites.push_back(reducer);
    }
    Job* job = bed.mr().submit(small_sort(0.1));
    ASSERT_EQ(job->maps().size(), 1u);
    Task& map = *job->maps().front();
    auto evict = [&] {
      TaskAttempt* a = map.running_attempt();
      ASSERT_NE(a, nullptr);
      bed.mr().requeue(*a, /*ban_tracker=*/true);
    };
    auto lose = [&] {
      cluster::ExecutionSite* site = sites.back();
      if (order == Order::kBanThenLoss) {
        // The one tracker left unbanned, where the map now runs.
        ASSERT_NE(map.running_attempt(), nullptr);
        site = &map.running_attempt()->site();
      } else if (order == Order::kBanThenLossWhilePending) {
        EXPECT_TRUE(map.pending()) << "bans cover both map trackers";
      }
      bed.mr().mark_tracker_lost(*site);
    };
    if (order == Order::kLossThenBan) {
      lose();
      bed.sim().at(1.0, evict);
      bed.sim().at(2.0, evict);
    } else {
      bed.sim().at(1.0, evict);
      bed.sim().at(2.0, evict);
      bed.sim().at(3.0, lose);
    }
    bed.run_until(3600);
    EXPECT_EQ(job->state(), JobState::kDone)
        << "order " << static_cast<int>(order) << ": "
        << (map.pending() ? "map starved" : "map not pending");
  }
}

TEST(MapReduce, SplitArchitectureOutperformsCombined) {
  // Paper Fig. 2(d): split TaskTracker/DataNode VMs beat combined VMs.
  auto spec = small_sort(2.0);

  TestBed combined;
  combined.add_virtual_nodes(/*hosts=*/4, /*vms_per_host=*/2);
  const double combined_jct = combined.run_job(spec);

  TestBed split;
  split.add_split_nodes(/*hosts=*/4, /*compute_vms_per_host=*/2);
  const double split_jct = split.run_job(spec);
  EXPECT_LT(split_jct, combined_jct);
}

TEST(MapReduce, CrossHostShuffleCostsMoreThanSameHost) {
  // Paper Fig. 2(a): 4 VMs on 1 host vs 4 VMs on 4 hosts.
  auto spec = small_sort(1.0);

  TestBed same;
  same.add_virtual_nodes(/*hosts=*/1, /*vms_per_host=*/4);
  const double same_host = same.run_job(spec);

  TestBed cross;
  cross.add_virtual_nodes(/*hosts=*/4, /*vms_per_host=*/1);
  const double cross_host = cross.run_job(spec);
  // Note: cross-host has 4x the physical hardware, but the shuffle and
  // replication traffic must cross the network.
  EXPECT_GT(same_host, 0);
  EXPECT_GT(cross_host, 0);
}

// A reducer launches its whole shuffle at once: local and loopback fetches
// as their own flows, every remote source in one batched flow. The crash
// path must still see each source, so mid-shuffle the reducer depends on
// every site that holds one of its map outputs, and on no other site.
TEST(MapReduce, ShuffleDependsOnEveryFetchSource) {
  TestBed::Options options;
  options.speculative_execution = false;
  TestBed bed(options);
  const std::vector<cluster::Machine*> hosts = bed.add_plain_machines(4);
  cluster::VirtualMachine* own = bed.add_plain_vm(*hosts[0]);
  cluster::VirtualMachine* neighbour = bed.add_plain_vm(*hosts[0]);
  // One map slot per source site, so the four maps leave one output on
  // each; only `own` takes the reducer.
  const std::vector<cluster::ExecutionSite*> sources = {own, neighbour,
                                                        hosts[1], hosts[2]};
  for (cluster::ExecutionSite* s : sources) {
    bed.hdfs().add_datanode(*s);
    bed.mr().add_tracker(*s, /*map_slots=*/1, /*reduce_slots=*/s == own);
  }
  // The fifth site stores input blocks but runs no task.
  cluster::ExecutionSite* idle = hosts[3];
  bed.hdfs().add_datanode(*idle);

  JobSpec spec = small_sort(4 * 128.0 / 1024);
  spec.num_reducers = 1;
  Job* job = bed.mr().submit(spec);
  ASSERT_EQ(job->maps().size(), 4u);
  ASSERT_EQ(job->reduces().size(), 1u);
  const Task& reduce = *job->reduces().front();
  const auto shuffle_started = [&] {
    const auto& events = bed.telemetry()->trace.events();
    return std::any_of(events.begin(), events.end(), [](const auto& e) {
      return e.kind == telemetry::EventKind::kShuffleStart;
    });
  };
  while (!shuffle_started() && bed.sim().now() < 3600) {
    bed.run_until(bed.sim().now() + 0.1);
  }
  const TaskAttempt* reducer = reduce.running_attempt();
  ASSERT_NE(reducer, nullptr) << "no reducer in its shuffle by t=3600";
  ASSERT_EQ(&reducer->site(), own);
  for (cluster::ExecutionSite* s : sources) {
    EXPECT_TRUE(std::any_of(
        job->maps().begin(), job->maps().end(),
        [s](const auto& m) { return m->output_site() == s; }))
        << s->name() << " holds no map output";
    EXPECT_TRUE(reducer->depends_on(*s)) << s->name();
  }
  EXPECT_FALSE(reducer->depends_on(*idle));
}

TEST(MapReduce, JobRecordsLocalityBenefit) {
  TestBed bed;
  bed.add_native_nodes(4);
  bed.run_job(small_sort(1.0));
  const double local = bed.hdfs().bytes_read_local_mb().value();
  const double remote = bed.hdfs().bytes_read_remote_mb().value();
  // The scheduler prefers data-local maps; most input reads stay local.
  EXPECT_GT(local, remote);
}

// --- dispatch equivalence ---
//
// The offer-set dispatch must be invisible in simulated outcomes. The
// naive dispatch it replaced re-scanned every tracker on every pass; each
// scenario below pins a digest of the report JSON, CSV and trace that the
// naive and the indexed dispatch both produced, recorded while the naive
// mode still existed. Its two scans live on as audit checkpoints in
// MapReduceEngine (offer_sets_match_scan, host_gate_matches_scan), and the
// lazy completion-event reschedule's seat contract is a model test
// (EventQueueProperty in property_test.cc).

struct ReportArtifacts {
  std::string json;
  std::string csv;
  std::string trace;
};

// FNV-1a over the three artifacts, each closed by a separator byte.
std::uint64_t digest_of(const ReportArtifacts& artifacts) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const std::string* part :
       {&artifacts.json, &artifacts.csv, &artifacts.trace}) {
    for (const char c : *part) mix(static_cast<unsigned char>(c));
    mix(0xff);
  }
  return h;
}

ReportArtifacts run_report_scenario() {
  TestBed::Options options;
  options.seed = 1234;
  TestBed bed(options);
  bed.add_native_nodes(2);
  bed.add_virtual_nodes(2, 2);

  bed.run_jobs({workload::sort_job().with_input_gb(0.25),
                workload::wcount().with_input_gb(0.25)});

  ReportArtifacts out;
  const telemetry::RunReport report = bed.report();
  std::ostringstream json, csv, trace;
  report.to_json(json);
  report.to_csv(csv);
  if (bed.telemetry() != nullptr) bed.telemetry()->trace.to_jsonl(trace);
  out.json = json.str();
  out.csv = csv.str();
  out.trace = trace.str();
  return out;
}

TEST(DispatchEquivalence, IndexedMatchesNaiveByteForByte) {
  // The naive dispatch's artifacts, queue-mechanics counters included.
  // Re-pinned (from 0x201985dfab5eb326) when the report lost its
  // "metrics" member: the older tree's artifacts with that member cut out
  // hash to this value.
  EXPECT_EQ(digest_of(run_report_scenario()), 0x95c87ba04b0cbc47u);
}

// Phase I pool restrictions: native-only and virtual-only jobs beside
// unrestricted ones, arriving while earlier jobs still hold slots, so
// dispatch passes see pending work that only one partition may take.
ReportArtifacts run_pooled_scenario(std::uint64_t* scans) {
  TestBed::Options options;
  options.seed = 99;
  options.profile = scans != nullptr;
  TestBed bed(options);
  bed.add_native_nodes(4);
  bed.add_virtual_nodes(4, 2);
  const PlacementPool pools[] = {PlacementPool::kNativeOnly,
                                 PlacementPool::kVirtualOnly,
                                 PlacementPool::kAny};
  const JobSpec specs[] = {workload::sort_job().with_input_gb(0.5),
                           workload::wcount().with_input_gb(0.5),
                           workload::dist_grep().with_input_gb(0.25)};
  int finished = 0;
  for (int i = 0; i < 12; ++i) {
    bed.sim().at(3.0 * i, [&bed, &pools, &specs, &finished, i] {
      Job* job = bed.mr().submit(specs[i % 3], pools[(i / 3 + i) % 3]);
      job->on_complete = [&finished](Job&) { ++finished; };
    });
  }
  bed.sim().run();
  EXPECT_EQ(finished, 12);

  if (scans != nullptr && bed.profiler() != nullptr) {
    *scans =
        bed.profiler()->work(telemetry::WorkCounter::kDispatchTrackerScans);
  }
  ReportArtifacts out;
  const telemetry::RunReport report = bed.report();
  std::ostringstream json, csv, trace;
  report.to_json(json);
  report.to_csv(csv);
  if (bed.telemetry() != nullptr) bed.telemetry()->trace.to_jsonl(trace);
  out.json = json.str();
  out.csv = csv.str();
  out.trace = trace.str();
  return out;
}

TEST(DispatchEquivalence, PooledIndexedMatchesNaive) {
  const ReportArtifacts indexed = run_pooled_scenario(nullptr);
  // Re-derived when the grouped water-fill replaced the sort-and-chain
  // sweep (whose ties gave equal demands ulp-different grants, and which
  // pinned 0xb707173f65c35036 here): the last tree with the naive dispatch
  // (commit 449c9d6) with the grouped fill dropped in still passes its own
  // naive == indexed checks, and this is its naive run's digest, with the
  // report's since-deleted "metrics" member cut out (0x2a6e13d954c8d149
  // with it).
  EXPECT_EQ(digest_of(indexed), 0xa738de5c740c1cc8u);
  // Profiled (the JSON report and trace then carry profiler data), the
  // placements are the same again. The pool-aware offer walk skips the
  // trackers whose partition has nothing to take (one offer set per type
  // visited 11,854 trackers here), and the host-load-aware sets skip the
  // trackers whose host is at its cap (visiting them and summing their
  // hosts' sites counted 4,512). Audit builds count the same: their scans
  // are not visits.
  std::uint64_t scans = 0;
  const ReportArtifacts profiled = run_pooled_scenario(&scans);
  EXPECT_EQ(profiled.csv, indexed.csv);
  EXPECT_EQ(scans, 265u);
}

// --- fair order: the live-job index vs the per-pick sort it replaced ---

// The FairScheduler as it was before the engine kept live jobs in fair
// order: every pick filters the jobs, stable-sorts them by running attempts
// (ties in submit order) and takes the first job that yields a task. Kept
// here as the reference the indexed walk must match pick for pick.
class SortingFairScheduler : public TaskScheduler {
 public:
  Task* pick(TaskTracker& tracker, TaskType type, const LiveJobs& live,
             const storage::Hdfs& hdfs, bool locality_only) override {
    by_starvation_.clear();
    for (Job* job : live.in_submit_order()) {
      if (!eligible(*job, type)) continue;
      if (!job->pool_allows(tracker.site().is_virtual())) continue;
      by_starvation_.emplace_back(job->running_tasks(), job);
    }
    std::stable_sort(
        by_starvation_.begin(), by_starvation_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [running, job] : by_starvation_) {
      if (Task* t = pick_from_job(*job, type, tracker, hdfs, locality_only)) {
        return t;
      }
    }
    return nullptr;
  }
  [[nodiscard]] const char* name() const override { return "fair-sorting"; }

 private:
  std::vector<std::pair<int, Job*>> by_starvation_;
};

struct FairRun {
  std::string jobs;      // one row per job: state and phase times
  std::string attempts;  // one row per attempt: label, tracker, start
  int maps_reexecuted = 0;
  int jobs_failed = 0;
  int speculative = 0;
};

// A many-jobs-shaped run on a stack built directly (no TestBed): 64 short
// jobs arriving faster than 8 virtual hosts x 2 VMs drain them, two tracker
// losses (lost map outputs re-executed, reducing jobs sent back to
// mapping), a task failed past max_attempts (its job fails), and a
// throttled straggler for the speculation scan.
FairRun run_fair_order_scenario(std::unique_ptr<TaskScheduler> scheduler) {
  const auto& cal = cluster::Calibration::standard();
  sim::Simulation sim(7);
  cluster::HybridCluster hc(sim, cal);
  storage::Hdfs hdfs(sim, cal);
  MapReduceEngine::Options options;
  options.max_attempts = 2;
  MapReduceEngine mr(sim, hdfs, cal, std::move(scheduler), options);
  for (auto* host : hc.add_machines(8)) {
    for (auto* vm : hc.virtualize(*host, 2)) {
      hdfs.add_datanode(*vm);
      mr.add_tracker(*vm);
    }
  }
  const JobSpec specs[] = {workload::pi_est().with_input_gb(0.03),
                           workload::dist_grep().with_input_gb(0.25),
                           workload::sort_job().with_input_gb(0.25)};
  std::vector<cluster::ExecutionSite*> lost;
  for (int i = 0; i < 64; ++i) {
    sim.at(2.5 * i + 0.5 * (i % 3), [&mr, &specs, i] {
      mr.submit(specs[(i * 7) % 3]);
    });
  }
  // Lose the tracker holding a reducing job's first map output: its lost
  // outputs are re-executed and the job drops back to mapping. Tried at
  // t=60 and t=130, then every second until some job is reducing.
  std::function<void()> lose_map_output = [&] {
    for (const auto& job : mr.jobs()) {
      if (job->state() != JobState::kReducing) continue;
      cluster::ExecutionSite* site = job->maps().front()->output_site();
      if (mr.tracker_on(*site)->blacklisted()) continue;
      mr.mark_tracker_lost(*site);
      lost.push_back(site);
      return;
    }
    if (mr.active_jobs() > 0) {
      sim.after(sim::Duration{1.0}, [&] { lose_map_output(); });
    }
  };
  sim.at(60.0, [&] { lose_map_output(); });
  sim.at(130.0, [&] { lose_map_output(); });
  sim.at(170.0, [&mr, &lost] { mr.restore_tracker(*lost.front()); });
  // A Kmeans map throttled to a crawl outlives the arrival burst: once
  // slots free up, the speculation scan copies it.
  Job* straggling = mr.submit(workload::kmeans().with_input_gb(0.5));
  sim.at(20.0, [&mr, straggling] {
    cluster::Resources caps = cluster::Resources::unbounded();
    caps.cpu = 0.01;
    for (TaskAttempt* a : mr.running_attempts()) {
      if (&a->task().job() == straggling) {
        a->set_caps(caps);
        return;
      }
    }
    FAIL() << "no Kmeans attempt to throttle";
  });
  sim.at(95.0, [&mr] {
    // Fail one task twice in a row: the requeue relaunches it at once on
    // the slot it freed, and the second failure reaches max_attempts.
    TaskAttempt* a = mr.running_attempts().back();
    Task& task = a->task();
    mr.fail_attempt(*a);
    ASSERT_NE(task.running_attempt(), nullptr);
    mr.fail_attempt(*task.running_attempt());
  });
  sim.run();
  EXPECT_EQ(lost.size(), 2u);

  FairRun out;
  char row[256];
  for (const auto& job : mr.jobs()) {
    std::snprintf(row, sizeof row, "j%d %s %s %.17g %.17g %.17g\n", job->id(),
                  job->spec().name.c_str(), to_string(job->state()),
                  job->submit_time(), job->map_phase_end(),
                  job->finish_time());
    out.jobs += row;
    for (const auto* tasks : {&job->maps(), &job->reduces()}) {
      for (const auto& t : *tasks) {
        for (const auto& a : t->attempts()) {
          std::snprintf(row, sizeof row, "%s %s %.17g\n", a->label().c_str(),
                        a->site().name().c_str(), a->started_at());
          out.attempts += row;
        }
      }
    }
  }
  out.maps_reexecuted = mr.maps_reexecuted();
  out.jobs_failed = mr.jobs_failed();
  out.speculative = mr.speculative_launched();
  return out;
}

TEST(FairOrderEquivalence, IndexedMatchesSortingReference) {
  const FairRun indexed =
      run_fair_order_scenario(std::make_unique<FairScheduler>());
  const FairRun sorting =
      run_fair_order_scenario(std::make_unique<SortingFairScheduler>());
  // The scenario reaches the paths that move jobs in and out of the index.
  EXPECT_GT(indexed.maps_reexecuted, 0);
  EXPECT_EQ(indexed.jobs_failed, 1);
  EXPECT_GT(indexed.speculative, 0);
  EXPECT_EQ(indexed.jobs, sorting.jobs);
  EXPECT_EQ(indexed.attempts, sorting.attempts);
  EXPECT_EQ(indexed.maps_reexecuted, sorting.maps_reexecuted);
  EXPECT_EQ(indexed.jobs_failed, sorting.jobs_failed);
  EXPECT_EQ(indexed.speculative, sorting.speculative);
}

// --- offer-set maintenance across blacklist / crash / restore ---

// Attempts of `job` on `tr` that started strictly after `after`.
int attempts_on(const Job& job, const TaskTracker& tr, double after = -1) {
  int n = 0;
  auto scan = [&](const std::vector<std::unique_ptr<Task>>& tasks) {
    for (const auto& t : tasks) {
      for (const auto& a : t->attempts()) {
        if (&a->tracker() == &tr && a->started_at() > after) ++n;
      }
    }
  };
  scan(job.maps());
  scan(job.reduces());
  return n;
}

TEST(DispatchOfferSet, BlacklistedTrackerReceivesNoWork) {
  TestBed bed;
  bed.add_native_nodes(3);
  cluster::ExecutionSite* lost = bed.nodes().front();
  ASSERT_TRUE(bed.mr().mark_tracker_lost(*lost));

  Job* job = bed.mr().submit(small_sort(1.0));
  bed.sim().run();
  ASSERT_TRUE(job->finished());

  const TaskTracker* t0 = bed.mr().tracker_on(*lost);
  ASSERT_NE(t0, nullptr);
  EXPECT_TRUE(t0->blacklisted());
  EXPECT_EQ(attempts_on(*job, *t0), 0)
      << "blacklisted tracker must be absent from the offer sets";
}

TEST(DispatchOfferSet, SurvivesCrashTeardownAndRestore) {
  // A mid-run crash requeues the tracker's attempts and drops it from the
  // offer sets; the surviving trackers finish the job without ever
  // launching there again. Restoring the tracker must re-offer its slots:
  // a follow-up job runs work there.
  TestBed bed;
  bed.add_native_nodes(2);
  cluster::ExecutionSite* crashed = bed.nodes().front();

  Job* first = bed.mr().submit(small_sort(1.0));
  bed.sim().at(10.0, [&] { bed.mr().mark_tracker_lost(*crashed); });
  bed.sim().run();
  ASSERT_TRUE(first->finished());

  const TaskTracker* t0 = bed.mr().tracker_on(*crashed);
  ASSERT_NE(t0, nullptr);
  EXPECT_EQ(attempts_on(*first, *t0, /*after=*/10.0), 0)
      << "no attempt may start on the lost tracker after the crash";

  ASSERT_TRUE(bed.mr().restore_tracker(*crashed));
  Job* second = bed.mr().submit(small_sort(1.0));
  bed.sim().run();
  ASSERT_TRUE(second->finished());
  EXPECT_GT(attempts_on(*second, *t0), 0)
      << "restored tracker must be back in the offer sets";
}

TEST(DispatchOfferSet, GateFollowsVmMigration) {
  // A host runs at most 2 attempts per core. Host `a` (2 cores: cap 4)
  // holds VM `full` (2 map slots) and VM `spare` (5): the first dispatch
  // fills `full` and gives `spare` two maps, then leaves `spare` out of the
  // offer sets while host `a` sits at its cap.
  TestBed::Options options;
  options.speculative_execution = false;
  TestBed bed(options);
  const std::vector<cluster::Machine*> hosts = bed.add_plain_machines(2);
  cluster::Machine& a = *hosts[0];
  cluster::Machine& b = *hosts[1];
  cluster::VirtualMachine* full = bed.add_plain_vm(a);
  cluster::VirtualMachine* spare = bed.add_plain_vm(a);
  for (cluster::VirtualMachine* vm : {full, spare}) {
    bed.hdfs().add_datanode(*vm);
  }
  const TaskTracker* t_full = bed.mr().add_tracker(*full, 2, 0);
  const TaskTracker* t_spare = bed.mr().add_tracker(*spare, 5, 0);
  ASSERT_EQ(a.capacity().cpu, 2.0);

  bed.mr().submit(small_sort(2.0));
  ASSERT_EQ(t_full->running().size(), 2u);
  ASSERT_EQ(t_spare->running().size(), 2u);
  // Park the first four attempts so only the topology moves.
  for (TaskAttempt* at : bed.mr().running_attempts()) at->set_paused(true);

  // Once `full` lands on host b, host a runs 2: the next dispatch must give
  // `spare` two more maps, and stop there.
  std::size_t spare_after_move = 0;
  ASSERT_TRUE(bed.cluster().migrator().migrate(
      *full, b, [&](const cluster::MigrationRecord&) {
        bed.mr().dispatch();
        spare_after_move = t_spare->running().size();
      }));
  bed.run_until(600);
  EXPECT_EQ(spare_after_move, 4u)
      << "host a fell below its cap when full left; spare must be offered";
  EXPECT_EQ(t_full->running().size(), 2u);

  // Crash teardown detaches `spare` after its attempts die with the host;
  // on reboot it re-attaches empty, and its restored tracker takes maps up
  // to the cap again (4 of its 5 slots): neither stale totals nor a lost
  // gate survive the round trip.
  faults::FaultInjector injector(bed.sim(), bed.cluster(), bed.hdfs(),
                                 bed.mr(), faults::FaultSchedule{});
  std::size_t spare_after_reboot = 0;
  bed.sim().at(700.0, [&] {
    ASSERT_TRUE(injector.crash_machine(a, sim::Duration{10.0}));
    EXPECT_TRUE(t_spare->running().empty());
  });
  bed.sim().at(710.5, [&] {
    ASSERT_EQ(spare->host_machine(), &a);
    spare_after_reboot = t_spare->running().size();
  });
  bed.run_until(720);
  EXPECT_EQ(spare_after_reboot, 4u);
}

}  // namespace
}  // namespace hybridmr::mapred
