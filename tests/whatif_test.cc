// Whole-engine fork tests for the what-if engine (docs/WHATIF.md).
//
// These tests prove fork fidelity for the fully wired engine: cluster +
// HDFS + MapReduce + interactive apps + fault injector + Phase II control
// loops, forked MID-CHAOS via WhatIfEngine::run_isolated. The oracle is
// the strongest one available: the forked child and the primary continue
// from the same cut and their %.17g end-of-run fingerprints must match
// byte for byte.
//
// Also covered here: fork isolation (child mutations never reach the
// parent), the model-predictive IPS (lookaheads happen; same seed =>
// byte-identical reports across two independent engines and across child
// pool sizes; every lookahead decision record names the best-scored
// candidate), child-failure reporting, and the child pool itself (input
// order, failure isolation, large payloads, the bound on live children).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/hybridmr.h"
#include "faults/injector.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"
#include "whatif/fork.h"
#include "workload/benchmarks.h"

namespace hybridmr {
namespace {

using Scenario = whatif::WhatIfEngine::Scenario;

// Full round-trip precision — the oracle is byte equality, so nothing may
// round away a divergence.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Chaos cluster with IPS + DRM active: the fig-8-class shape (virtual
// Hadoop partition + a collocated interactive app) under machine crashes,
// reboots and a background attempt-failure stream.
harness::TestBed::Options chaos_options(std::uint64_t seed) {
  harness::TestBed::Options o;
  o.seed = seed;
  o.calibration.hdfs_replicas = 3;
  o.faults.one_shot.push_back(
      {faults::FaultSpec::Kind::kMachineCrash, /*at=*/30.0, "vhost1",
       sim::Duration{60.0}});
  o.faults.one_shot.push_back(
      {faults::FaultSpec::Kind::kMachineCrash, /*at=*/120.0, "vhost3",
       sim::Duration{45.0}});
  o.faults.task_failure_rate = 0.02;
  o.faults.rate_horizon_s = 240;
  o.faults.seed = seed ^ 0x9e3779b9;
  return o;
}

// One wired engine: TestBed + HybridMRScheduler (Phase II only) + an
// interactive app + batch jobs, paused mid-chaos at `pause_at`.
struct Engine {
  explicit Engine(std::uint64_t seed, bool predictive = false)
      : bed(chaos_options(seed)) {
    auto sites = bed.add_virtual_nodes(/*hosts=*/4, /*vms_per_host=*/2);
    core::HybridMROptions options;
    options.enable_phase1 = false;
    options.ips.model_predictive = predictive;
    options.ips.lookahead_horizon_s = 20.0;
    hybrid = std::make_unique<core::HybridMRScheduler>(
        bed.sim(), bed.cluster(), bed.hdfs(), bed.mr(), options);
    hybrid->start();
    // Collocated with batch trackers on vhost0 (which stays up through
    // the chaos schedule): the IPS has real interference to arbitrate.
    hybrid->deploy_interactive(interactive::olio_params(), 1100, sites[0]);
    bed.mr().submit(workload::sort_job().with_input_gb(2));
    bed.mr().submit(workload::wcount().with_input_gb(1));
  }

  void run_until(double t) { bed.run_until(t); }

  // Deterministic across processes: report JSON, clock, per-job outcome,
  // then trailing draws from the main and every named Rng stream — any
  // divergence in hidden state shows up in the resumed sequences.
  std::string fingerprint() {
    std::vector<const interactive::InteractiveApp*> apps;
    for (const auto& app : hybrid->apps()) apps.push_back(app.get());
    std::ostringstream os;
    bed.report(apps).to_json(os);
    os << "\nnow=" << num(bed.sim().now());
    int i = 0;
    for (const auto& job : bed.mr().jobs()) {
      os << "\njob" << i++ << " finished=" << job->finished()
         << " ok=" << job->succeeded() << " t=" << num(job->finish_time());
    }
    for (int k = 0; k < 3; ++k) {
      os << "\nrng=" << num(bed.sim().rng().uniform());
    }
    for (const auto& name : bed.sim().named_rng_streams()) {
      os << "\n" << name << "=" << num(bed.sim().named_rng(name).uniform());
    }
    return os.str();
  }

  // Non-mutating view (no Rng draws) for isolation checks.
  std::string passive_fingerprint() {
    std::vector<const interactive::InteractiveApp*> apps;
    for (const auto& app : hybrid->apps()) apps.push_back(app.get());
    std::ostringstream os;
    bed.report(apps).to_json(os);
    os << "\nnow=" << num(bed.sim().now());
    return os.str();
  }

  harness::TestBed bed;
  std::unique_ptr<core::HybridMRScheduler> hybrid;
};

// --- tentpole oracle: whole-engine fork equivalence, mid-chaos ----------

TEST(WhatIfFork, ChaosForkEquivalence) {
  constexpr double kCut = 80.0;  // vhost1 is down, its reboot is pending
  constexpr double kEnd = 400.0;

  Engine e(/*seed=*/7);
  e.run_until(kCut);

  // Child continues the run to kEnd and reports its fingerprint.
  whatif::ForkResult child = e.bed.whatif().run_isolated([&] {
    e.run_until(kEnd);
    return e.fingerprint();
  });
  ASSERT_TRUE(child.ok);

  // The primary performs the identical continuation.
  e.run_until(kEnd);
  const std::string primary = e.fingerprint();

  EXPECT_EQ(child.payload, primary);
  EXPECT_EQ(e.bed.whatif().stats().forks, 1);
  EXPECT_EQ(e.bed.whatif().stats().child_failures, 0);
}

// A second cut inside the *other* crash window, different seed: the
// equivalence must not depend on a lucky fork point.
TEST(WhatIfFork, ChaosForkEquivalenceSecondCut) {
  constexpr double kCut = 130.0;  // vhost3 down, background failures armed
  constexpr double kEnd = 400.0;

  Engine e(/*seed=*/1234);
  e.run_until(kCut);
  whatif::ForkResult child = e.bed.whatif().run_isolated([&] {
    e.run_until(kEnd);
    return e.fingerprint();
  });
  ASSERT_TRUE(child.ok);
  e.run_until(kEnd);
  EXPECT_EQ(child.payload, e.fingerprint());
}

// --- isolation: nothing a child does is visible to the parent -----------

TEST(WhatIfFork, ForkIsolation) {
  Engine e(/*seed=*/11);
  e.run_until(60.0);

  const std::string before = e.passive_fingerprint();

  // The child mutates aggressively: runs 300 more simulated seconds of
  // chaos, drains jobs, draws from every Rng stream.
  whatif::ForkResult child = e.bed.whatif().run_isolated([&] {
    e.run_until(360.0);
    return e.fingerprint();
  });
  ASSERT_TRUE(child.ok);
  EXPECT_NE(child.payload, before);

  // Parent state is untouched: same clock, same report, and the run
  // continues normally afterwards.
  EXPECT_EQ(e.passive_fingerprint(), before);
  e.run_until(90.0);
  EXPECT_EQ(num(e.bed.sim().now()), num(90.0));
}

// --- child failure is an answer, not an error ---------------------------

TEST(WhatIfFork, ChildFailureReported) {
  Engine e(/*seed=*/5);
  e.run_until(20.0);
  whatif::ForkResult r = e.bed.whatif().run_isolated(
      []() -> std::string { std::_Exit(3); });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(e.bed.whatif().stats().forks, 1);
  EXPECT_EQ(e.bed.whatif().stats().child_failures, 1);
  // The engine survives a dead child: the next fork works.
  whatif::ForkResult r2 =
      e.bed.whatif().run_isolated([] { return std::string("alive"); });
  EXPECT_TRUE(r2.ok);
  EXPECT_EQ(r2.payload, "alive");
}

// A program that ignores SIGCHLD has its children reaped by the kernel:
// waitpid fails with ECHILD and no exit status exists. That child's outcome
// is unknown, so it must count as failed — not read as a clean exit.
TEST(WhatIfFork, UncollectableExitStatusIsAFailure) {
  sim::Simulation sim;
  whatif::WhatIfEngine engine(sim);
  struct sigaction ignore = {};
  struct sigaction saved = {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  ASSERT_EQ(::sigaction(SIGCHLD, &ignore, &saved), 0);
  const whatif::ForkResult r =
      engine.run_isolated([]() -> std::string { std::_Exit(3); });
  ASSERT_EQ(::sigaction(SIGCHLD, &saved, nullptr), 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(engine.stats().forks, 1);
  EXPECT_EQ(engine.stats().child_failures, 1);
}

// --- the child pool -------------------------------------------------------

// Earlier entries simulate longer horizons, so with every child alive at
// once they finish last; the results still come back in input order.
TEST(WhatIfPool, ResultsComeBackInInputOrder) {
  constexpr int kBatch = 8;
  constexpr double kCut = 60.0;
  const auto end_of = [](int i) { return kCut + 40.0 * (kBatch - i); };
  Engine e(/*seed=*/11);
  e.run_until(kCut);
  std::vector<Scenario> batch;
  for (int i = 0; i < kBatch; ++i) {
    batch.emplace_back([&e, &end_of, i] {
      e.run_until(end_of(i));
      return std::to_string(i) + "@" + num(e.bed.sim().now());
    });
  }
  whatif::WhatIfEngine pool(e.bed.sim(), {.max_children = kBatch});
  const std::vector<whatif::ForkResult> results = pool.run_isolated(batch);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kBatch));
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(results[i].ok) << i;
    EXPECT_EQ(results[i].payload, std::to_string(i) + "@" + num(end_of(i)));
  }
  EXPECT_EQ(pool.stats().forks, kBatch);
  EXPECT_EQ(pool.stats().child_failures, 0);
}

// A child that dies mid-batch fails its own slot only: its siblings'
// payloads arrive whole and match the parent's own continuation.
TEST(WhatIfPool, FailedChildOnlyFailsItsSlot) {
  constexpr int kBatch = 5;
  constexpr int kDies = 2;
  Engine e(/*seed=*/5);
  e.run_until(20.0);
  std::vector<Scenario> batch;
  for (int i = 0; i < kBatch; ++i) {
    batch.emplace_back([&e, i]() -> std::string {
      if (i == kDies) std::_Exit(3);
      e.run_until(60.0);
      return e.passive_fingerprint();
    });
  }
  whatif::WhatIfEngine pool(e.bed.sim(), {.max_children = 4});
  const std::vector<whatif::ForkResult> results = pool.run_isolated(batch);
  e.run_until(60.0);
  const std::string primary = e.passive_fingerprint();
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_EQ(results[i].ok, i != kDies) << i;
    EXPECT_EQ(results[i].payload, i == kDies ? "" : primary) << i;
  }
  EXPECT_EQ(pool.stats().forks, kBatch);
  EXPECT_EQ(pool.stats().child_failures, 1);
}

// Each payload is 16 pipe buffers long, so every child blocks in write()
// until the parent reads: the pool must keep reading all four pipes and
// reassemble each payload from many interleaved reads.
TEST(WhatIfPool, ConcurrentMegabytePayloadsArriveExact) {
  constexpr int kBatch = 4;
  constexpr std::size_t kBytes = 1 << 20;
  const auto pattern = [](int i) {
    std::string s(kBytes, '\0');
    for (std::size_t j = 0; j < kBytes; ++j) {
      s[j] = static_cast<char>((j + 97 * static_cast<std::size_t>(i)) % 251);
    }
    return s;
  };
  sim::Simulation sim;
  whatif::WhatIfEngine pool(sim, {.max_children = kBatch});
  std::vector<Scenario> batch;
  for (int i = 0; i < kBatch; ++i) {
    batch.emplace_back([&pattern, i] { return pattern(i); });
  }
  const std::vector<whatif::ForkResult> results = pool.run_isolated(batch);
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(results[i].ok) << i;
    EXPECT_EQ(results[i].payload.size(), kBytes) << i;
    EXPECT_TRUE(results[i].payload == pattern(i)) << i;
  }
}

// The bound: a census in memory shared by every child counts how many are
// alive at once.
TEST(WhatIfPool, NeverMoreThanMaxChildrenAlive) {
  struct Census {
    std::atomic<int> alive{0};
    std::atomic<int> peak{0};
  };
  static_assert(std::atomic<int>::is_always_lock_free,
                "the census must work across processes");
  void* mem = ::mmap(nullptr, sizeof(Census), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  auto* census = new (mem) Census;
  sim::Simulation sim;
  whatif::WhatIfEngine pool(sim, {.max_children = 2});
  std::vector<Scenario> batch;
  for (int i = 0; i < 6; ++i) {
    batch.emplace_back([census, i] {
      const int alive = census->alive.fetch_add(1) + 1;
      int peak = census->peak.load();
      while (alive > peak && !census->peak.compare_exchange_weak(peak, alive)) {
      }
      ::usleep(100 * 1000);  // long enough to overlap the next sibling
      census->alive.fetch_sub(1);
      return std::to_string(i);
    });
  }
  const std::vector<whatif::ForkResult> results = pool.run_isolated(batch);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(results[i].ok) << i;
    EXPECT_EQ(results[i].payload, std::to_string(i));
  }
  EXPECT_EQ(census->peak.load(), 2);
  EXPECT_EQ(census->alive.load(), 0);
  ::munmap(mem, sizeof(Census));
}

// --- model-predictive IPS ----------------------------------------------

TEST(WhatIfPredictiveIps, LookaheadsRunAndRunCompletes) {
  Engine e(/*seed=*/7, /*predictive=*/true);
  e.run_until(400.0);
  const auto& stats = e.hybrid->ips().stats();
  EXPECT_GT(stats.lookaheads, 0);
  ASSERT_NE(e.hybrid->whatif(), nullptr);
  EXPECT_GT(e.hybrid->whatif()->stats().forks, 0);
  bool any_finished = false;
  for (const auto& job : e.bed.mr().jobs()) {
    any_finished = any_finished || job->finished();
  }
  EXPECT_TRUE(any_finished);
  e.hybrid->stop();
}

// Lookahead forks are side-effect-free on the parent beyond the chosen
// action: two independent engines with the same seed stay byte-identical
// through an entire predictive run.
TEST(WhatIfPredictiveIps, SameSeedByteIdentical) {
  Engine a(/*seed=*/99, /*predictive=*/true);
  Engine b(/*seed=*/99, /*predictive=*/true);
  a.run_until(400.0);
  b.run_until(400.0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// Every candidate forks from the same parent state whatever the pool size:
// one child at a time and four at once make the same decisions.
TEST(WhatIfPredictiveIps, PoolSizeDoesNotChangeTheRun) {
  Engine serial(/*seed=*/7, /*predictive=*/true);
  Engine pooled(/*seed=*/7, /*predictive=*/true);
  whatif::WhatIfEngine one_child(serial.bed.sim(), {.max_children = 1});
  whatif::WhatIfEngine four_children(pooled.bed.sim(), {.max_children = 4});
  serial.hybrid->ips().set_whatif(&one_child);
  pooled.hybrid->ips().set_whatif(&four_children);
  serial.run_until(400.0);
  pooled.run_until(400.0);
  EXPECT_GT(four_children.stats().forks, 0);
  EXPECT_EQ(serial.hybrid->ips().stats(), pooled.hybrid->ips().stats());
  EXPECT_EQ(one_child.stats(), four_children.stats());
  EXPECT_EQ(serial.fingerprint(), pooled.fingerprint());
}

// Decision records: each "lookahead" IPS action lists every candidate's
// child status and score after its "target" arg, and the target is the
// candidate the IPS ranking puts first — recover the SLA, then maximize
// batch progress; otherwise minimize violation fraction, then response
// time, then maximize progress; ties keep the earlier (cheaper) candidate.
TEST(WhatIfPredictiveIps, LookaheadRecordsNameTheBestScoredCandidate) {
  Engine e(/*seed=*/7, /*predictive=*/true);
  ASSERT_NE(e.bed.telemetry(), nullptr);
  e.hybrid->set_telemetry(e.bed.telemetry());
  e.run_until(400.0);

  struct Score {
    std::string name;
    bool ok = false;
    double viol = 0, resp = 0, done = 0;
  };
  const sim::Duration limit = e.hybrid->apps().front()->params().sla_s *
                              e.hybrid->ips().options().restore_margin;
  const auto recovered = [&](const Score& s) {
    return s.ok && sim::Duration{s.resp} <= limit;
  };
  const auto better = [&](const Score& x, const Score& y) {
    if (recovered(x) != recovered(y)) return recovered(x);
    if (recovered(x)) return x.done > y.done;
    if (x.viol != y.viol) return x.viol < y.viol;
    if (x.resp != y.resp) return x.resp < y.resp;
    return x.done > y.done;
  };

  int records = 0;
  int candidates = 0;
  for (const telemetry::TraceEvent& ev : e.bed.telemetry()->trace.events()) {
    if (ev.kind != telemetry::EventKind::kIpsAction || ev.name != "lookahead") {
      continue;
    }
    ++records;
    candidates += static_cast<int>(ev.args.size()) - 1;
    ASSERT_GE(ev.args.size(), 2u);
    ASSERT_EQ(ev.args.front().first, "target");
    std::vector<Score> scores;
    for (std::size_t k = 1; k < ev.args.size(); ++k) {
      Score s;
      s.name = ev.args[k].first;
      int ok = 0;
      ASSERT_EQ(std::sscanf(ev.args[k].second.c_str(),
                            "ok=%d viol=%lf resp=%lf done=%lf", &ok, &s.viol,
                            &s.resp, &s.done),
                4)
          << ev.args[k].second;
      s.ok = ok != 0;
      scores.push_back(s);
    }
    EXPECT_EQ(scores.front().name, "hold");
    std::size_t best = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
      if (better(scores[i], scores[best])) best = i;
    }
    EXPECT_TRUE(scores[best].ok);
    EXPECT_EQ(ev.args.front().second, scores[best].name)
        << "at t=" << ev.time_s;
  }
  EXPECT_GT(records, 0);
  // Every candidate the IPS forked is scored in some record.
  EXPECT_EQ(candidates, e.hybrid->ips().stats().lookaheads);
}

}  // namespace
}  // namespace hybridmr
