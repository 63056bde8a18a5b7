// Capacity planner on the what-if engine: sweep many forked scenarios from
// ONE warmed simulation and compare against re-running each scenario from a
// cold start. The point of the whole-engine fork (docs/WHATIF.md): the
// expensive part of a what-if — building the cluster, ingesting HDFS
// blocks, warming the schedulers into a representative mid-chaos state —
// is paid once; every scenario after that is a copy-on-write fork(2) that
// only pays for its own lookahead horizon.
//
// Each scenario perturbs the warmed engine by index (which machine to
// crash, which extra job to inject, when) and reports the horizon outcome
// (batch progress, app response, makespan damage) through the fork pipe.
// The same scenario function drives the cold baseline, so the wall-clock
// comparison is like for like. Everything a child reports is simulated
// state — no PIDs, no wall clock — so the sweep fingerprint printed by
// --fingerprint is identical for identical seeds; the golden_bench_whatif
// test pins the seed-7 fingerprint (tests/goldens/bench_whatif.txt).
//
// The sweep runs as one batch through the what-if child pool (one child per
// CPU this process may run on) and once more one child at a time; the two
// must hash to the same fingerprint, or the bench exits non-zero.
//
// Emits google-benchmark-shaped JSON (--out) with mean per-scenario wall
// times for "whatif/forked" (the pool), "whatif/forked_serial" (one child
// at a time) and "whatif/cold"; BENCH_whatif.json gates cold/forked >= 5x
// and forked_serial/forked >= 1.5x via perf_gate.py ratio rules (all sides
// run in this same process on this same machine). The pool can only beat
// one child at a time by as many CPUs as the host really lends it, so
// "whatif/forked" also carries "parallelism": the CPUs a forked busy-loop
// probe found free around the pooled sweep; the pool rule applies only
// when that is >= 2. Outside --fingerprint mode it also prints what each
// pooled child cost on average: wall time from fork to reap, payload bytes
// and minor page faults (WhatIfEngine::Costs).
//
// Usage: bench_whatif [--seed N] [--scenarios N] [--cold K] [--out FILE]
//                     [--fingerprint]
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/hybridmr.h"
#include "faults/injector.h"
#include "harness/table.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "workload/benchmarks.h"

namespace {

using namespace hybridmr;

// A benchmark harness is the one place where wall-clock time is the
// measurand rather than a determinism hazard: nothing inside the simulation
// ever sees these readings.
using WallClock = std::chrono::steady_clock;  // sim-lint: allow(wall-clock)

constexpr double kWarmUntil = 240.0;   // shared prefix every scenario reuses
constexpr double kHorizon = 30.0;      // simulated seconds per scenario

// The warmed engine: a fig8-class virtual cluster mid-chaos, with a
// collocated interactive app and a heterogeneous batch in flight.
struct Engine {
  explicit Engine(std::uint64_t seed) {
    harness::TestBed::Options o;
    o.seed = seed;
    o.telemetry = false;
    o.calibration.hdfs_replicas = 3;
    o.faults.one_shot.push_back({faults::FaultSpec::Kind::kMachineCrash,
                                 /*at=*/30.0, "vhost1", sim::Duration{60.0}});
    o.faults.task_failure_rate = 0.02;
    o.faults.rate_horizon_s = 400;
    o.faults.seed = seed ^ 0x9e3779b9;
    bed = std::make_unique<harness::TestBed>(o);
    sites = bed->add_virtual_nodes(/*hosts=*/24, /*vms_per_host=*/2);

    core::HybridMROptions options;
    options.enable_phase1 = false;
    hybrid = std::make_unique<core::HybridMRScheduler>(
        bed->sim(), bed->cluster(), bed->hdfs(), bed->mr(), options);
    hybrid->start();
    hybrid->deploy_interactive(interactive::olio_params(), 1100, sites[0]);
    // One fig8-class wave per 8 hosts, as in bench_scale: the warmed
    // prefix carries real batch state worth amortizing.
    for (int w = 0; w < 3; ++w) {
      for (const auto& spec : workload::fig8_wave()) bed->mr().submit(spec);
    }
  }

  // One capacity-planning scenario, perturbed by index: crash a machine,
  // inject an extra job, then run the horizon and report what happened.
  // Runs identically in a forked child and in a cold replica.
  std::string scenario(int i) {
    const int victim = 1 + i % 5;  // vhost1..vhost5 (vhost0 hosts the app)
    const double crash_at = bed->sim().now() + 2.0 + (i % 4);
    if (bed->faults() != nullptr && i % 7 != 0) {  // some scenarios: no crash
      auto* m = bed->cluster().machine("vhost" + std::to_string(victim));
      bed->sim().at(crash_at, [this, m] {
        if (m != nullptr) bed->faults()->crash_machine(*m, sim::Duration{40.0});
      });
    }
    switch (i % 3) {
      case 0: bed->mr().submit(workload::sort_job().with_input_gb(0.5)); break;
      case 1: bed->mr().submit(workload::pi_est()); break;
      default: break;  // pure capacity probe: no extra load
    }
    bed->run_until(bed->sim().now() + kHorizon);

    double done = 0;
    double makespan = 0;
    int finished = 0;
    for (const auto& job : bed->mr().jobs()) {
      done += job->maps_done() + job->reduces_done();
      if (job->finished()) {
        ++finished;
        makespan = std::max(makespan, job->finish_time());
      }
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "i=%d done=%.17g finished=%d makespan=%.17g resp=%.17g",
                  i, done, finished, makespan,
                  hybrid->apps().front()->response_time_s());
    return buf;
  }

  std::unique_ptr<harness::TestBed> bed;
  std::unique_ptr<core::HybridMRScheduler> hybrid;
  std::vector<cluster::ExecutionSite*> sites;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double ms_since(WallClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - t0)
      .count();
}

struct Sweep {
  std::uint64_t fingerprint = 1469598103934665603ull;
  double per_scenario_ms = 0;
  int failed = 0;
  whatif::WhatIfEngine::Costs costs;
};

// Forks every scenario from the warmed engine through one child pool.
Sweep run_sweep(Engine& engine,
                const std::vector<whatif::WhatIfEngine::Scenario>& scenarios,
                whatif::WhatIfEngine::Options options) {
  whatif::WhatIfEngine pool(engine.bed->sim(), options);
  Sweep s;
  const auto t0 = WallClock::now();
  const std::vector<whatif::ForkResult> results = pool.run_isolated(scenarios);
  s.per_scenario_ms =
      ms_since(t0) / std::max<std::size_t>(1, scenarios.size());
  s.costs = pool.costs();
  for (const whatif::ForkResult& r : results) {
    if (!r.ok) ++s.failed;
    s.fingerprint ^= fnv1a(r.payload);
    s.fingerprint *= 1099511628211ull;
  }
  return s;
}

// Wall time of `copies` forked children running one fixed busy loop side
// by side. Forked directly, not through the pool, so a pool that stopped
// running children side by side cannot hide behind this measurement.
double busy_ms(int copies) {
  const auto t0 = WallClock::now();
  std::vector<pid_t> pids;
  for (int c = 0; c < copies; ++c) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      volatile std::uint64_t sink = 0;
      for (std::uint64_t i = 0; i < (1u << 25); ++i) sink = sink + i;
      ::_exit(0);
    }
    if (pid > 0) pids.push_back(pid);
  }
  for (const pid_t pid : pids) ::waitpid(pid, nullptr, 0);
  return ms_since(t0);
}

// CPUs this process really gets right now: how much faster four busy loops
// finish side by side than one after another would. A VM whose vCPUs other
// tenants hold reads near 1 whatever its affinity mask says.
double measured_parallelism() {
  constexpr int kCopies = 4;
  const double one = busy_ms(1);
  return kCopies * one / busy_ms(kCopies);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  int scenarios = 120;
  int cold = 8;
  const char* out_path = nullptr;
  bool fingerprint = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--scenarios") == 0 && i + 1 < argc) {
      scenarios = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cold") == 0 && i + 1 < argc) {
      cold = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fingerprint") == 0) {
      fingerprint = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_whatif [--seed N] [--scenarios N] [--cold K] "
                   "[--out FILE] [--fingerprint]\n");
      return 2;
    }
  }

  harness::banner("What-if capacity sweep: warmed forks vs cold starts");

  // --- warmed sweeps: one engine, `scenarios` forks each ---------------
  const auto warm_t0 = WallClock::now();
  Engine engine(seed);
  engine.bed->run_until(kWarmUntil);
  const double warm_ms = ms_since(warm_t0);

  std::vector<whatif::WhatIfEngine::Scenario> sweep;
  for (int i = 0; i < scenarios; ++i) {
    sweep.emplace_back([&engine, i] { return engine.scenario(i); });
  }
  // Probed on both sides of the pooled sweep: the CPUs free throughout.
  const double probe_before = measured_parallelism();
  const Sweep pooled = run_sweep(engine, sweep, {});
  const double parallelism = std::min(probe_before, measured_parallelism());
  const Sweep serial = run_sweep(engine, sweep, {.max_children = 1});
  int failed = pooled.failed + serial.failed;
  // Every child forks from the same parent state whatever the pool size.
  const bool pool_invariant = pooled.fingerprint == serial.fingerprint;

  // --- cold baseline: rebuild + rewarm + same scenario, per scenario --
  const auto cold_t0 = WallClock::now();
  for (int i = 0; i < cold; ++i) {
    Engine replica(seed);
    replica.bed->run_until(kWarmUntil);
    const std::string payload = replica.scenario(i);
    if (payload.empty()) ++failed;
  }
  const double cold_ms = ms_since(cold_t0) / std::max(1, cold);

  harness::Table table({"mode", "scenarios", "per_scenario_ms", "notes"});
  char pool_note[96];
  std::snprintf(pool_note, sizeof(pool_note),
                "one child per CPU, %.1f CPUs free; one-time warmup %.0f ms",
                parallelism, warm_ms);
  table.row({"forked", std::to_string(scenarios),
             std::to_string(pooled.per_scenario_ms), pool_note});
  table.row({"forked_serial", std::to_string(scenarios),
             std::to_string(serial.per_scenario_ms), "one child at a time"});
  table.row({"cold", std::to_string(cold), std::to_string(cold_ms),
             "build + warm + horizon each"});
  table.print();
  std::printf(
      "speedup: %.1fx per scenario vs cold, pool %.1fx vs serial (%d child "
      "failures)\n",
      pooled.per_scenario_ms > 0 ? cold_ms / pooled.per_scenario_ms : 0.0,
      pooled.per_scenario_ms > 0
          ? serial.per_scenario_ms / pooled.per_scenario_ms
          : 0.0,
      failed);
  if (fingerprint) {
    std::printf("sweep_fingerprint: %016llx\n",
                static_cast<unsigned long long>(pooled.fingerprint));
  } else {
    const whatif::WhatIfEngine::Costs& c = pooled.costs;
    const double n = std::max(1, c.children);
    std::printf(
        "per child (pooled, %d reaped): %.2f ms fork to reap, %.0f payload "
        "bytes, %.0f minor faults\n",
        c.children, 1000.0 * c.wall_s / n,
        static_cast<double>(c.payload_bytes) / n,
        static_cast<double>(c.minor_faults) / n);
  }
  if (!pool_invariant) {
    std::fprintf(stderr,
                 "bench_whatif: the pooled sweep (%016llx) differs from the "
                 "one-child sweep (%016llx)\n",
                 static_cast<unsigned long long>(pooled.fingerprint),
                 static_cast<unsigned long long>(serial.fingerprint));
  }

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_whatif: cannot write %s\n", out_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    std::fprintf(f,
                 "    {\"name\": \"whatif/forked\", \"real_time\": %.3f, "
                 "\"time_unit\": \"ms\", \"scenarios\": %d, "
                 "\"parallelism\": %.2f, \"child_failures\": %d, "
                 "\"warmup_ms\": %.3f},\n",
                 pooled.per_scenario_ms, scenarios, parallelism, pooled.failed,
                 warm_ms);
    std::fprintf(f,
                 "    {\"name\": \"whatif/forked_serial\", \"real_time\": "
                 "%.3f, \"time_unit\": \"ms\", \"scenarios\": %d, "
                 "\"children\": 1, \"child_failures\": %d},\n",
                 serial.per_scenario_ms, scenarios, serial.failed);
    std::fprintf(f,
                 "    {\"name\": \"whatif/cold\", \"real_time\": %.3f, "
                 "\"time_unit\": \"ms\", \"scenarios\": %d}\n",
                 cold_ms, cold);
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("bench_whatif: wrote %s\n", out_path);
  }
  return failed == 0 && pool_invariant ? 0 : 1;
}
