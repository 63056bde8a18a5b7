// The four hmrbench workloads. Each one builds its inputs in benchmark code
// from the seed (job mix, sizes, arrival times, app populations, what-if
// perturbations) and hands the simulator only those generated inputs.
//
// A workload object is one iteration: its constructor is the set-up phase
// (testbed build, HDFS staging, Phase I training or warm-up), measure() is
// the measured phase, and finish() derives the simulated outputs and the
// correctness verdict. Everything a layer does is observed from outside:
// the benchmark opens telemetry::Scope spans around its own calls into each
// layer's public functions and reads the counters the layers already expose.
//
// The seed permutes a fixed job multiset and draws arrival times from a
// Poisson stream conditioned on its job count, so the total input work does
// not depend on it; how the simulator schedules that work still does, which
// is why hmr_bench reports medians over several seeds per run.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/hybridmr.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "telemetry/profiler.h"
#include "telemetry/report.h"
#include "workload/benchmarks.h"

namespace hmrbench {

using namespace hybridmr;

// A benchmark harness is the one place where wall-clock time is the
// measurand rather than a determinism hazard: nothing inside the simulation
// ever sees these readings.
using WallClock = std::chrono::steady_clock;  // sim-lint: allow(wall-clock)

inline double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Arrival times of `n` jobs from a Poisson stream conditioned on exactly
/// `n` arrivals in [0, span): sorted iid uniforms. Unconditioned gaps would
/// let the seed stretch the whole run by ~1/sqrt(n).
inline std::vector<double> poisson_arrivals(int n, double span, sim::Rng& rng) {
  std::vector<double> at(static_cast<std::size_t>(n));
  for (double& t : at) t = rng.uniform(0.0, span);
  std::sort(at.begin(), at.end());
  return at;
}

/// bench_scale's fig8-class heterogeneous batch: per 8 hosts one I/O-bound
/// 2 GB sort, one I/O-bound 4 GB grep and one memory+I/O 2 GB wordcount,
/// submitted in a seed-shuffled order.
inline std::vector<mapred::JobSpec> fig8_batch(int hosts, sim::Rng& rng) {
  std::vector<mapred::JobSpec> specs;
  for (int w = 0; w < hosts / 8; ++w) {
    specs.push_back(workload::sort_job().with_input_gb(2.0));
    specs.push_back(workload::dist_grep().with_input_gb(4.0));
    specs.push_back(workload::wcount().with_input_gb(2.0));
  }
  rng.shuffle(std::span<mapred::JobSpec>(specs));
  return specs;
}

/// Host seconds one iteration, or one forked scenario, may take before it
/// counts as hung; a normal iteration takes about one.
inline constexpr unsigned kBudgetS = 60;

struct Config {
  std::uint64_t seed = 42;
  bool traced = false;     // profiler on + benchmark spans recorded
  bool smoke = false;      // seconds-scale sizes for the smoke test
  bool via_start = false;  // Phase II via HybridMRScheduler::start()
};

/// The simulated outputs of one iteration plus its correctness verdict.
struct Outcome {
  std::uint64_t digest = 0;
  double makespan_s = 0;
  double mean_jct_s = 0;
  double sla_violation_frac = 0;
  std::size_t events = 0;
  int ops = 0;                        // jobs that must succeed, or scenarios
  std::vector<std::string> failures;  // one reason per failed op
};

/// Benchmark-side profiler spans. Interned on the run's profiler, so they
/// nest in the same calling-context tree as the scopes inside src/.
struct Spans {
  explicit Spans(telemetry::Profiler* p) : prof(p) {
    if (p == nullptr) return;
    measured = p->intern("bench.measured");
    mr_submit = p->intern("mapred.submit");
    core_submit = p->intern("core.submit");
    drm_epoch = p->intern("core.drm.epoch");
    ips_epoch = p->intern("core.ips.epoch");
    deploy = p->intern("interactive.deploy");
    scenario = p->intern("whatif.scenario");
    report = p->intern("telemetry.report");
  }
  telemetry::Profiler* prof;
  telemetry::ScopeId measured, mr_submit, core_submit, drm_epoch, ips_epoch,
      deploy, scenario, report;
};

class Workload {
 public:
  virtual ~Workload() {
    // Pending handlers capture this object; drop them before it goes.
    bed_->sim().shutdown();
    hybrid_.reset();
  }
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// The measured phase, inside the "bench.measured" span.
  void measure() {
    telemetry::Scope s(spans_.prof, spans_.measured);
    run();
  }

  /// Simulated outputs, digest and per-op verdicts of the finished run.
  Outcome finish() {
    Outcome o = outputs();
    for (const mapred::Job* job : jobs_) {
      ++o.ops;
      if (!job->succeeded()) {
        o.failures.push_back("job " + std::to_string(job->id()) + " " +
                             job->spec().name + " ended " +
                             mapred::to_string(job->state()));
      }
    }
    if (!error_.empty()) o.failures.push_back(error_);
    check(o);
    return o;
  }

  [[nodiscard]] harness::TestBed& bed() { return *bed_; }
  [[nodiscard]] core::HybridMRScheduler* hybrid() { return hybrid_.get(); }
  [[nodiscard]] telemetry::Profiler* profiler() { return spans_.prof; }
  /// Host seconds of the TestBed constructor plus node registration.
  [[nodiscard]] double build_s() const { return build_s_; }
  /// Host seconds of Phase I training during set-up (hybrid-mix only).
  [[nodiscard]] double phase1_train_s() const { return phase1_train_s_; }
  /// Forked scenario latencies of the measured phase, in host seconds.
  [[nodiscard]] const std::vector<double>& scenario_s() const {
    return scenario_s_;
  }
  /// Forks the predictive IPS spent on lookaheads during set-up.
  [[nodiscard]] int lookahead_forks() const { return lookahead_forks_; }

 protected:
  /// `o.seed` seeds the simulation itself; the workload's generated inputs
  /// come from cfg.seed.
  Workload(const Config& cfg, harness::TestBed::Options o) : cfg_(cfg) {
    // The untraced run measures the scheduling/allocation core, as
    // bench_scale does; the traced run adds only the profiler's hub.
    o.telemetry = false;
    o.profile = cfg.traced;
    o.watchdog.wall_budget_s = kBudgetS;
    const auto t0 = WallClock::now();
    bed_ = std::make_unique<harness::TestBed>(o);
    build_s_ = seconds_since(t0);
    spans_ = Spans(bed_->profiler());
  }

  virtual void run() = 0;
  /// Workload-specific correctness checks on top of the per-job verdicts.
  virtual void check(Outcome& o) { (void)o; }

  /// Times a topology call into the build_s() figure.
  template <typename Fn>
  auto timed_build(Fn&& fn) {
    const auto t0 = WallClock::now();
    auto out = fn();
    build_s_ += seconds_since(t0);
    return out;
  }

  void make_hybrid(core::HybridMROptions options) {
    hybrid_ = std::make_unique<core::HybridMRScheduler>(
        bed_->sim(), bed_->cluster(), bed_->hdfs(), bed_->mr(),
        std::move(options));
  }

  /// Starts Phase II. HybridMRScheduler::start() is exactly two tickers —
  /// DRM at offset epoch/2, then IPS at offset epoch — so the benchmark
  /// creates the same two in the same order, calling the public epoch()
  /// functions inside spans. Config::via_start takes the library path
  /// instead; the smoke test proves both give the same digest.
  void start_phase2() {
    if (cfg_.via_start) {
      hybrid_->start();
      return;
    }
    const core::HybridMROptions& o = hybrid_->options();
    auto& sim = bed_->sim();
    if (o.enable_drm) {
      drm_ticker_ = sim.every(
          o.drm.epoch_s,
          [this] {
            telemetry::Scope s(spans_.prof, spans_.drm_epoch);
            hybrid_->drm().epoch();
          },
          o.drm.epoch_s / 2);
    }
    if (o.enable_ips) {
      ips_ticker_ = sim.every(
          o.ips.epoch_s,
          [this] {
            telemetry::Scope s(spans_.prof, spans_.ips_epoch);
            hybrid_->ips().epoch();
          },
          o.ips.epoch_s);
    }
  }

  /// Submits straight to the JobTracker; the job joins the per-op verdicts.
  void submit(const mapred::JobSpec& spec) {
    telemetry::Scope s(spans_.prof, spans_.mr_submit);
    jobs_.push_back(bed_->mr().submit(spec));
  }

  /// Schedules `submit_one(spec)` for each job at its simulated arrival.
  template <typename Fn>
  void schedule_arrivals(const std::vector<double>& at,
                         const std::vector<mapred::JobSpec>& specs,
                         Fn submit_one) {
    for (std::size_t i = 0; i < at.size(); ++i) {
      bed_->sim().at(at[i], [submit_one, spec = specs[i]] { submit_one(spec); });
    }
  }

  /// Advances simulated time in `slice` steps until `expected` jobs were
  /// submitted and all of them finished. Stops early, recording why, when
  /// the per-iteration wall budget runs out, the profiler watchdog stalls
  /// the run, or the event queue drains with work left.
  void drive_jobs(std::size_t expected, double slice) {
    drive_until(slice, [this, expected] {
      if (jobs_.size() < expected) return false;
      for (const mapred::Job* j : jobs_) {
        if (!j->finished()) return false;
      }
      return true;
    });
  }

  void drive_until(double slice, const std::function<bool()>& done) {
    const auto t0 = WallClock::now();
    auto& sim = bed_->sim();
    while (!done()) {
      if (seconds_since(t0) > kBudgetS) {
        error_ = "wall budget of " + std::to_string(kBudgetS) +
                 " s exceeded at sim t=" + std::to_string(sim.now());
        return;
      }
      if (spans_.prof != nullptr && spans_.prof->stalled()) {
        error_ = "watchdog: " + spans_.prof->stall_reason();
        return;
      }
      if (sim.pending_events() == 0) {
        error_ = "event queue drained at sim t=" + std::to_string(sim.now()) +
                 " with work left";
        return;
      }
      bed_->run_until(sim.now() + slice);
      contain_lookahead_child();
    }
  }

  /// A model-predictive IPS lookahead forked near the end of a run_until
  /// window returns, in the child, into this run loop with its horizon event
  /// still pending. Keep that child inside the event loop until the horizon
  /// event reports and _exits, so no child ever runs benchmark code.
  void contain_lookahead_child() {
    whatif::WhatIfEngine* w = hybrid_ ? hybrid_->whatif() : nullptr;
    if (w == nullptr || !w->in_lookahead()) return;
    auto& sim = bed_->sim();
    const double step = hybrid_->options().ips.lookahead_horizon_s;
    while (sim.pending_events() > 0) sim.run_until(sim.now() + step);
    std::_Exit(97);  // unreachable: the horizon event exits first
  }

  std::vector<const interactive::InteractiveApp*> apps() const {
    std::vector<const interactive::InteractiveApp*> out;
    if (hybrid_) {
      for (const auto& a : hybrid_->apps()) out.push_back(a.get());
    }
    return out;
  }

  Config cfg_;
  std::unique_ptr<harness::TestBed> bed_;
  std::unique_ptr<core::HybridMRScheduler> hybrid_;
  Spans spans_{nullptr};
  std::vector<mapred::Job*> jobs_;
  std::vector<double> scenario_s_;
  std::string error_;
  double build_s_ = 0;
  double phase1_train_s_ = 0;
  int lookahead_forks_ = 0;

 private:
  /// sim_digest — FNV-1a over the RunReport's jobs and apps rows, sim_end_s
  /// and events_processed, never the profile section — and the simulated
  /// summary figures. The report build + JSON export is the
  /// "telemetry.report" span.
  Outcome outputs() {
    telemetry::RunReport r;
    {
      telemetry::Scope s(spans_.prof, spans_.report);
      r = bed_->report(apps());
      std::ostringstream json;
      r.to_json(json);
    }
    Outcome o;
    std::uint64_t h = fnv1a("hmrbench");
    char buf[512];
    int done = 0;
    for (const auto& j : r.jobs) {
      std::snprintf(buf, sizeof(buf),
                    "job %d %s %s %d %d %.17g %.17g %.17g %.17g %.17g %.17g\n",
                    j.id, j.name.c_str(), j.state.c_str(), j.maps, j.reduces,
                    j.submit_s, j.finish_s, j.jct_s, j.map_phase_s,
                    j.reduce_phase_s, j.shuffle_mb.value());
      h = fnv1a(buf, h);
      o.makespan_s = std::max(o.makespan_s, j.finish_s);
      if (j.state == "done") {
        o.mean_jct_s += j.jct_s;
        ++done;
      }
    }
    if (done > 0) o.mean_jct_s /= done;
    double viol = 0;
    for (const auto& a : r.apps) {
      std::snprintf(buf, sizeof(buf),
                    "app %s %zu %.17g %.17g %.17g %.17g %.17g %.17g\n",
                    a.name.c_str(), a.samples, a.mean_s, a.p50_s, a.p95_s,
                    a.p99_s, a.max_s, a.violation_fraction);
      h = fnv1a(buf, h);
      viol += a.violation_fraction;
    }
    if (!r.apps.empty()) {
      o.sla_violation_frac = viol / static_cast<double>(r.apps.size());
    }
    std::snprintf(buf, sizeof(buf), "end %.17g %zu\n", r.sim_end_s,
                  r.events_processed);
    o.digest = fnv1a(buf, h);
    o.events = r.events_processed;
    return o;
  }

  sim::PeriodicHandle drm_ticker_;
  sim::PeriodicHandle ips_ticker_;
};

// ---------------------------------------------------------------------------

/// batch-wide: bench_scale's fig8-class batch on a wide virtual cluster,
/// FairScheduler, no Phase II. Shuffle fan-in puts one flow workload per
/// source machine on each reducer VM, so allocation (cluster) and dispatch
/// (mapred) carry the run while core/interactive/whatif stay idle. Set-up
/// includes HDFS staging: every job is submitted at t=0.
class BatchWide : public Workload {
 public:
  explicit BatchWide(const Config& cfg) : Workload(cfg, {.seed = cfg.seed}) {
    const int hosts = cfg.smoke ? 16 : 80;
    timed_build([&] { return bed_->add_virtual_nodes(hosts, 2); });
    sim::Rng rng(cfg.seed);
    for (const auto& spec : fig8_batch(hosts, rng)) submit(spec);
  }

 private:
  void run() override { drive_jobs(jobs_.size(), 10.0); }
};

/// many-jobs: 500 small jobs (pi_est alternating with a 0.25 GB dist_grep)
/// arriving faster than a 48-host virtual cluster drains them,
/// so the event queue and the FairScheduler's dispatch run over hundreds
/// of live jobs with few resident flows per VM. A queue or dispatch change
/// shows here; a waterfill change should not.
class ManyJobs : public Workload {
 public:
  explicit ManyJobs(const Config& cfg) : Workload(cfg, {.seed = cfg.seed}) {
    const int hosts = cfg.smoke ? 8 : 48;
    jobs_expected_ = cfg.smoke ? 60 : 500;
    const double span = cfg.smoke ? 300.0 : 1800.0;
    timed_build([&] { return bed_->add_virtual_nodes(hosts, 2); });
    std::vector<mapred::JobSpec> specs;
    for (int i = 0; i < jobs_expected_; ++i) {
      specs.push_back(i % 2 == 0 ? workload::pi_est()
                                 : workload::dist_grep().with_input_gb(0.25));
    }
    sim::Rng rng(cfg.seed);
    rng.shuffle(std::span<mapred::JobSpec>(specs));
    schedule_arrivals(poisson_arrivals(jobs_expected_, span, rng), specs,
                      [this](const mapred::JobSpec& spec) { submit(spec); });
  }

 private:
  void run() override {
    drive_jobs(static_cast<std::size_t>(jobs_expected_), 10.0);
  }
  int jobs_expected_ = 0;
};

/// hybrid-mix: the paper's testbed shape — 24 native PMs plus 24 virtual
/// hosts x 2 VMs — under the HybridMR stack (Phase I, DRM, classic IPS)
/// with 12 interactive apps (RUBiS, Olio, TPC-W). Five of the six
/// benchmarks each run at six input sizes (0.5-3 GB), arriving as a Poisson
/// stream and drained to completion. The only workload where core and
/// interactive work; cluster is driven by DRM/IPS cap writes rather than
/// flow fan-in. Set-up trains Phase I for the five benchmarks.
///
/// Two findings shape it. Phase I runs in advisory mode: Algorithm 2
/// decides every job's pool, but the job is submitted unrestricted.
/// Applying the pools makes dispatch walk the other partition's free slots
/// on every pass while restricted tasks wait, and how long that lasts
/// depends on the arrival order: host time swung 0.66-1.70 s across the
/// inputs of one seed (CV 0.29), against CV 0.10 unrestricted, which no
/// bound this benchmark may set can absorb. And Twitter is left out: the
/// IPS pauses its memory-heavy reduce beside a violating app, restores it
/// once the app is healthy, and pauses it again at the next violation —
/// every 70 simulated seconds, for good (6 inputs in ~700 starved a job;
/// none in 960 without Twitter).
class HybridMix : public Workload {
 public:
  explicit HybridMix(const Config& cfg) : Workload(cfg, {.seed = cfg.seed}) {
    const int native = cfg.smoke ? 4 : 24;
    const int vhosts = cfg.smoke ? 4 : 24;
    const int n_apps = cfg.smoke ? 3 : 12;
    const double span = cfg.smoke ? 300.0 : 1800.0;
    const std::vector<double> sizes_gb =
        cfg.smoke ? std::vector<double>{0.5} : std::vector<double>{
                                                   0.5, 1.0, 1.5, 2.0, 2.5,
                                                   3.0};
    std::vector<mapred::JobSpec> benches;
    for (const auto& spec : workload::all_benchmarks()) {
      if (spec.name != "Twitter") benches.push_back(spec);
    }
    // Each app gets a VM of its own on a virtual host, next to that host's
    // two Hadoop VMs — the paper's collocation, which the IPS resolves by
    // acting on the batch tasks beside the app.
    const auto app_vms = timed_build([&] {
      bed_->add_native_nodes(native);
      const auto sites = bed_->add_virtual_nodes(vhosts, 2);
      std::vector<cluster::VirtualMachine*> vms;
      for (int i = 0; i < n_apps; ++i) {
        vms.push_back(bed_->add_plain_vm(*sites[2 * i]->host_machine()));
      }
      return vms;
    });
    core::HybridMROptions options;
    options.enable_phase1 = false;  // advisory: see the class comment
    make_hybrid(options);

    sim::Rng rng(cfg.seed);
    const auto t0 = WallClock::now();
    for (const auto& spec : benches) hybrid_->phase1().ensure_trained(spec);
    phase1_train_s_ = seconds_since(t0);

    const interactive::AppParams kinds[] = {interactive::rubis_params(),
                                            interactive::olio_params(),
                                            interactive::tpcw_params()};
    for (int i = 0; i < n_apps; ++i) {
      telemetry::Scope s(spans_.prof, spans_.deploy);
      hybrid_->deploy_interactive(kinds[i % 3], rng.uniform_int(400, 1000),
                                  app_vms[static_cast<std::size_t>(i)]);
    }
    start_phase2();

    std::vector<mapred::JobSpec> specs;
    for (const auto& bench : benches) {
      for (double gb : sizes_gb) specs.push_back(bench.with_input_gb(gb));
    }
    rng.shuffle(std::span<mapred::JobSpec>(specs));
    jobs_expected_ = specs.size();
    schedule_arrivals(
        poisson_arrivals(static_cast<int>(specs.size()), span, rng), specs,
        [this](const mapred::JobSpec& spec) {
          telemetry::Scope s(spans_.prof, spans_.core_submit);
          hybrid_->phase1().place(spec);
          jobs_.push_back(hybrid_->submit(spec));
        });
  }

 private:
  void run() override { drive_jobs(jobs_expected_, 5.0); }
  void check(Outcome& o) override {
    for (const auto* app : apps()) {
      if (app->response_series().values().empty()) {
        o.failures.push_back("app " + app->name() + " recorded no response");
      }
    }
  }
  std::size_t jobs_expected_ = 0;
};

/// whatif-sweep: bench_whatif's capacity planner. A 24-host engine is
/// warmed into the middle of a chaos run (a crash at 30 s, 2% task
/// failures) with the model-predictive IPS arbitrating by forked
/// lookaheads; set-up is that warm-up. Three fig8-class waves run from
/// t=0 and a fourth arrives 20 s before the fork point, so every scenario
/// forks a cluster with batch work in flight. The measured phase forks one
/// capacity scenario after another from the warmed engine — crash a host,
/// inject a job, run a 30 s horizon — so fork/COW/pipe cost (whatif) and
/// fault recovery (faults) carry the run. Fork cost grows with the
/// parent's RSS, so memory growth in any layer shows here too. (With all
/// batch work finished at the fork point, as in bench_whatif, kernel time
/// for fork and copy-on-write was half the run, and it drifts on a shared
/// host far more than user time does.)
class WhatifSweep : public Workload {
 public:
  static constexpr double kHorizon = 30.0;  // simulated s per scenario
  // The warmed engine is the fixed system being planned for; the seed
  // generates the scenarios asked of it. Seeding the engine too would let
  // the warm state (crash recovery, IPS arbitration) move every scenario's
  // cost at once: 2x between seeds, measured.
  static constexpr std::uint64_t kEngineSeed = 42;

  explicit WhatifSweep(const Config& cfg) : Workload(cfg, engine_options()) {
    const int hosts = cfg.smoke ? 8 : 24;
    const int n_scenarios = cfg.smoke ? 20 : 80;
    const double warm_until = cfg.smoke ? 120.0 : 240.0;
    auto sites =
        timed_build([&] { return bed_->add_virtual_nodes(hosts, 2); });

    core::HybridMROptions options;
    options.enable_phase1 = false;
    options.ips.model_predictive = true;
    options.ips.lookahead_horizon_s = kHorizon;
    make_hybrid(options);
    start_phase2();
    hybrid_->deploy_interactive(interactive::olio_params(), 1100, sites[0]);
    const auto wave = [this] {
      bed_->mr().submit(workload::sort_job().with_input_gb(2.0));
      bed_->mr().submit(workload::dist_grep().with_input_gb(4.0));
      bed_->mr().submit(workload::wcount().with_input_gb(2.0));
    };
    for (int w = 0; w < 3; ++w) wave();
    bed_->sim().at(warm_until - 20.0, wave);

    sim::Rng rng(cfg.seed);
    for (int i = 0; i < n_scenarios; ++i) {
      Scenario s;
      s.victim = 1 + rng.uniform_int(0, 4);  // vhost0 hosts the app
      s.crash_delay_s = rng.uniform(2.0, 6.0);
      s.crash = rng.uniform() >= 1.0 / 7.0;
      s.extra_job = rng.uniform_int(0, 2);
      scenarios_.push_back(s);
    }

    drive_until(10.0, [this, warm_until] {
      return bed_->sim().now() >= warm_until;
    });
    lookahead_forks_ = hybrid_->whatif()->stats().forks;
    lookahead_failures_ = hybrid_->whatif()->stats().child_failures;
  }

 private:
  static harness::TestBed::Options engine_options() {
    harness::TestBed::Options o;
    o.seed = kEngineSeed;
    o.calibration.hdfs_replicas = 3;
    o.faults.one_shot.push_back({faults::FaultSpec::Kind::kMachineCrash,
                                 /*at=*/30.0, "vhost1", sim::Duration{60.0}});
    o.faults.task_failure_rate = 0.02;
    o.faults.rate_horizon_s = 400;
    o.faults.seed = kEngineSeed ^ 0x9e3779b9;
    return o;
  }

  struct Scenario {
    int victim = 1;
    double crash_delay_s = 2;
    bool crash = true;
    int extra_job = 0;  // 0: 0.5 GB sort, 1: pi_est, 2: none
  };

  /// Forks through the HybridMR stack's own what-if engine, so inside a
  /// scenario child in_lookahead() holds and the predictive IPS falls back
  /// to Algorithm 3 instead of forking grandchildren.
  whatif::ForkResult fork_scenario(int i) {
    return hybrid_->whatif()->run_isolated([this, i] {
      ::alarm(kBudgetS);  // a hung child dies and counts as failed
      return scenario(i);
    });
  }

  /// One capacity-planning scenario; runs in the forked child.
  std::string scenario(int i) {
    const Scenario& s = scenarios_[static_cast<std::size_t>(i)];
    auto& sim = bed_->sim();
    if (s.crash && bed_->faults() != nullptr) {
      auto* m = bed_->cluster().machine("vhost" + std::to_string(s.victim));
      sim.at(sim.now() + s.crash_delay_s, [this, m] {
        if (m != nullptr) {
          bed_->faults()->crash_machine(*m, sim::Duration{40.0});
        }
      });
    }
    if (s.extra_job == 0) {
      bed_->mr().submit(workload::sort_job().with_input_gb(0.5));
    } else if (s.extra_job == 1) {
      bed_->mr().submit(workload::pi_est());
    }
    bed_->run_until(sim.now() + kHorizon);

    double done = 0;
    double makespan = 0;
    int finished = 0;
    for (const auto& job : bed_->mr().jobs()) {
      done += job->maps_done() + job->reduces_done();
      if (job->finished()) {
        ++finished;
        makespan = std::max(makespan, job->finish_time());
      }
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "i=%d done=%.17g finished=%d makespan=%.17g resp=%.17g", i,
                  done, finished, makespan,
                  hybrid_->apps().front()->response_time_s());
    return buf;
  }

  void run() override {
    for (int i = 0; i < static_cast<int>(scenarios_.size()); ++i) {
      const auto t0 = WallClock::now();
      whatif::ForkResult r;
      {
        telemetry::Scope s(spans_.prof, spans_.scenario);
        r = fork_scenario(i);
      }
      scenario_s_.push_back(seconds_since(t0));
      payloads_.push_back(r.ok ? r.payload : std::string());
    }
  }

  void check(Outcome& o) override {
    std::uint64_t h = o.digest;
    for (std::size_t i = 0; i < payloads_.size(); ++i) {
      ++o.ops;
      if (payloads_[i].empty()) {
        o.failures.push_back("scenario " + std::to_string(i) +
                             ": child exited abnormally");
      }
      h = fnv1a(payloads_[i] + "\n", h);
    }
    o.digest = h;
    if (!payloads_.empty()) {
      // Children must leave the parent untouched: the first scenario,
      // forked again after the whole sweep, answers byte for byte the same.
      ++o.ops;
      const whatif::ForkResult again = fork_scenario(0);
      if (!again.ok || again.payload != payloads_.front()) {
        o.failures.push_back("scenario 0 re-forked after the sweep differs");
      }
    }
    // The warm-up's IPS lookahead forks are ops too.
    o.ops += lookahead_forks_;
    for (int k = 0; k < lookahead_failures_; ++k) {
      o.failures.push_back("an IPS lookahead child exited abnormally");
    }
  }

  std::vector<Scenario> scenarios_;
  std::vector<std::string> payloads_;
  int lookahead_failures_ = 0;
};

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"batch-wide", "hybrid-mix",
                                                 "many-jobs", "whatif-sweep"};
  return names;
}

/// Builds workload `name` (the timed set-up phase); null if unknown.
inline std::unique_ptr<Workload> make_workload(const std::string& name,
                                               const Config& cfg) {
  if (name == "batch-wide") return std::make_unique<BatchWide>(cfg);
  if (name == "hybrid-mix") return std::make_unique<HybridMix>(cfg);
  if (name == "many-jobs") return std::make_unique<ManyJobs>(cfg);
  if (name == "whatif-sweep") return std::make_unique<WhatifSweep>(cfg);
  return nullptr;
}

/// Peak resident set of this process so far, in MB; fork children are
/// separate processes and not included. Read from VmHWM, not getrusage:
/// ru_maxrss carries over the launcher's footprint across exec.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kb = 0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kb) break;
    status.ignore(4096, '\n');
  }
  return kb / 1024.0;
}

}  // namespace hmrbench
