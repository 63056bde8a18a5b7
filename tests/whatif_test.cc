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
// byte-identical reports across two independent engines) and child-failure
// reporting.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/hybridmr.h"
#include "faults/injector.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "sim/simulation.h"
#include "whatif/fork.h"
#include "workload/benchmarks.h"

namespace hybridmr {
namespace {

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

}  // namespace
}  // namespace hybridmr
