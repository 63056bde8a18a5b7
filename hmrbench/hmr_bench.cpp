// hmr_bench: runs one hmrbench workload for a fixed host-time budget and
// prints one JSON line with its samples, simulated outputs, verdicts and
// (when traced) per-layer metrics. hmrbench/run.py builds and runs it; see
// hmrbench/README.md for the metric catalogue.
//
// A run repeats whole iterations — set-up, measured phase, verdict — over
// --inputs sub-inputs derived from --seed, until every sub-input ran and
// --seconds have passed. Every iteration of one sub-input must produce the
// same sim_digest. With --trace FILE, untraced and traced iterations of
// each sub-input alternate: the untraced twin gives the tracing overhead
// and the digest the traced one must match, the traced ones give the
// per-layer metrics (medians over sub-inputs), and the last traced profile
// is written to FILE in the scripts/profile_report.py input shape.
//
// Usage: hmr_bench --workload W [--seed N] [--seconds S] [--inputs K]
//                  [--trace FILE] [--smoke] [--via-start]
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.h"
#include "workloads.h"

namespace {

using namespace hmrbench;
using telemetry::WorkCounter;
using Metrics = std::vector<std::pair<std::string, double>>;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Per-scope wall figures from the profiler: exclusive (self) time summed
/// over every calling context of the scope, plus the scope's call count,
/// inclusive total and per-call histogram.
struct ScopeTimes {
  double self_s = 0;
  double total_s = 0;
  std::uint64_t count = 0;
  const telemetry::LogHistogram* hist = nullptr;

  [[nodiscard]] double pct_us(double p) const {
    return hist != nullptr ? hist->percentile(p) / 1e3 : 0;
  }
};

std::map<std::string, ScopeTimes> scope_times(const telemetry::Profiler& p) {
  std::map<std::string, ScopeTimes> out;
  const auto& names = p.scope_names();
  const auto& nodes = p.nodes();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    std::uint64_t child_ns = 0;
    for (std::size_t c : nodes[i].children) child_ns += nodes[c].total_ns;
    const std::uint64_t self_ns =
        nodes[i].total_ns > child_ns ? nodes[i].total_ns - child_ns : 0;
    out[names[nodes[i].scope]].self_s += static_cast<double>(self_ns) / 1e9;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& w = p.wall_stats()[i];
    ScopeTimes& t = out[names[i]];
    t.total_s = static_cast<double>(w.total_ns) / 1e9;
    t.count = w.count;
    t.hist = &w.hist;
  }
  return out;
}

/// Per-layer metrics of one traced iteration. Counts come from the public
/// getters each layer already has, or from the profiler's deterministic
/// work counters; times come from the profiler's scopes — the six inside
/// src/ and the benchmark's own spans around its calls into each layer.
Metrics layer_metrics(Workload& w, const Outcome& o) {
  harness::TestBed& bed = w.bed();
  const telemetry::Profiler& p = *w.profiler();
  auto st = scope_times(p);
  const auto work = [&p](WorkCounter c) {
    return static_cast<double>(p.work(c));
  };
  Metrics m;
  const auto add = [&m](const char* name, double v) { m.emplace_back(name, v); };

  add("sim.events", static_cast<double>(o.events));
  add("sim.events_deferred", static_cast<double>(bed.sim().events_deferred()));
  add("sim.events_cancelled",
      static_cast<double>(bed.sim().events_cancelled()));
  add("sim.max_queue_depth", static_cast<double>(bed.sim().max_queue_depth()));
  add("sim.self_s", st["sim.event"].self_s);

  double recomputes = 0;
  for (const auto& mach : bed.cluster().machines()) {
    recomputes += static_cast<double>(mach->recompute_count());
  }
  const ScopeTimes& recompute = st["cluster.machine.recompute"];
  add("cluster.recomputes", recomputes);
  add("cluster.recompute_drain", work(WorkCounter::kRecomputeDrain));
  add("cluster.recompute_read_barrier",
      work(WorkCounter::kRecomputeReadBarrier));
  add("cluster.dirty_set_mean",
      p.dist(telemetry::WorkDist::kDirtySetSize).mean());
  add("cluster.reschedule_deferred", work(WorkCounter::kRescheduleDeferred));
  add("cluster.reschedule_skipped", work(WorkCounter::kRescheduleSkipped));
  add("cluster.drain_self_s", st["cluster.realloc.drain"].self_s);
  add("cluster.recompute_self_s", recompute.self_s);
  add("cluster.us_per_recompute",
      recompute.count ? recompute.total_s * 1e6 / recompute.count : 0);

  const double scans = work(WorkCounter::kDispatchTrackerScans);
  const double launches = work(WorkCounter::kDispatchLaunches);
  add("mapred.dispatch_passes", work(WorkCounter::kDispatchPasses));
  add("mapred.tracker_scans", scans);
  add("mapred.launches", launches);
  add("mapred.scans_per_launch", launches > 0 ? scans / launches : 0);
  add("mapred.dispatch_self_s", st["mapred.dispatch"].self_s);
  add("mapred.speculation_scans", work(WorkCounter::kSpeculationScans));
  add("mapred.speculation_self_s", st["mapred.speculation_scan"].self_s);
  add("mapred.speculative_launched",
      static_cast<double>(bed.mr().speculative_launched()));
  add("mapred.submit_p50_us", st["mapred.submit"].pct_us(50));
  add("mapred.submit_p90_us", st["mapred.submit"].pct_us(90));
  add("mapred.failed_attempts",
      static_cast<double>(bed.mr().attempt_failures()));

  const double local = bed.hdfs().bytes_read_local_mb().value();
  const double remote = bed.hdfs().bytes_read_remote_mb().value();
  add("storage.hdfs_reads", work(WorkCounter::kHdfsReads));
  add("storage.hdfs_writes", work(WorkCounter::kHdfsWrites));
  add("storage.flows", work(WorkCounter::kHdfsFlows));
  add("storage.shuffle_transfers", work(WorkCounter::kShuffleTransfers));
  add("storage.flow_setup_self_s", st["storage.flow_setup"].self_s);
  add("storage.local_read_frac",
      local + remote > 0 ? local / (local + remote) : 0);

  core::HybridMRScheduler* hybrid = w.hybrid();
  const ScopeTimes& drm = st["core.drm.epoch"];
  const ScopeTimes& ips = st["core.ips.epoch"];
  add("core.phase1_train_s", w.phase1_train_s());
  add("core.submit_p50_us", st["core.submit"].pct_us(50));
  add("core.submit_p90_us", st["core.submit"].pct_us(90));
  add("core.drm_epochs", static_cast<double>(drm.count));
  add("core.drm_epoch_p50_us", drm.pct_us(50));
  add("core.drm_epoch_p90_us", drm.pct_us(90));
  add("core.drm_self_s", drm.self_s);
  add("core.drm_cap_updates",
      hybrid ? hybrid->drm().lifetime_stats().cap_updates : 0);
  add("core.ips_epochs", static_cast<double>(ips.count));
  add("core.ips_epoch_p50_us", ips.pct_us(50));
  add("core.ips_epoch_p90_us", ips.pct_us(90));
  add("core.ips_self_s", ips.self_s);
  double actions = 0;
  double lookaheads = 0;
  if (hybrid != nullptr) {
    const auto& s = hybrid->ips().stats();
    actions = s.throttles + s.pauses + s.requeues + s.vm_migrations;
    lookaheads = s.lookaheads;
  }
  add("core.ips_actions", actions);
  add("core.ips_lookaheads", lookaheads);

  double samples = 0;
  if (hybrid != nullptr) {
    for (const auto& app : hybrid->apps()) {
      samples += static_cast<double>(app->response_series().samples().size());
    }
  }
  add("interactive.response_samples", samples);
  add("interactive.deploy_ms", st["interactive.deploy"].total_s * 1e3);

  const faults::FaultInjector* inj = bed.faults();
  add("faults.crashes", inj ? inj->stats().machine_crashes : 0);
  add("faults.attempt_failures", inj ? inj->stats().task_failures : 0);

  const whatif::WhatIfEngine* wi = hybrid ? hybrid->whatif() : nullptr;
  const int lookahead_forks = w.lookahead_forks();
  std::vector<double> scenario_ms;
  for (double s : w.scenario_s()) scenario_ms.push_back(s * 1e3);
  add("whatif.forks", wi ? wi->stats().forks - lookahead_forks : 0);
  add("whatif.child_failures", wi ? wi->stats().child_failures : 0);
  add("whatif.lookahead_forks", lookahead_forks);
  add("whatif.scenario_p50_ms", percentile(scenario_ms, 50));
  add("whatif.scenario_p90_ms", percentile(scenario_ms, 90));

  add("telemetry.report_ms", st["telemetry.report"].total_s * 1e3);
  add("harness.build_ms", w.build_s() * 1e3);
  return m;
}

/// Element-wise median of same-shaped metric lists.
Metrics median_metrics(const std::vector<Metrics>& runs) {
  Metrics out;
  if (runs.empty()) return out;
  for (std::size_t i = 0; i < runs.front().size(); ++i) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r[i].second);
    out.emplace_back(runs.front()[i].first, median(v));
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ",";
    s += num(v[i]);
  }
  return s + "]";
}

/// Host-speed reference: a fixed mix of the operations the simulator's hot
/// paths are made of — random read-modify-writes over a table larger than
/// L2, binary-heap pushes and pops, floating-point arithmetic. It lives in
/// the benchmark, so no change under src/ can move it, and it allocates
/// nothing, so the heap state the workloads leave behind cannot either.
/// Returns host seconds.
double reference_s() {
  static std::array<double, std::size_t{1} << 17> table{};  // 1 MB
  static std::array<double, 4096> heap{};
  const auto t0 = WallClock::now();
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  std::size_t size = 0;
  double acc = 0;
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += static_cast<double>(x >> 40);
    if (size == heap.size()) {
      std::pop_heap(heap.begin(), heap.end());
      --size;
    }
    heap[size++] = static_cast<double>(x % 100000);
    std::push_heap(heap.begin(), heap.begin() + static_cast<long>(size));
    acc += std::sqrt(static_cast<double>(x % 1000));
  }
  const double s = seconds_since(t0);
  // Keep the work observable so it cannot be optimized away.
  if (acc + table[x & (table.size() - 1)] < 0) std::fprintf(stderr, "-\n");
  return s;
}

/// reference_s() on the host the bounds were measured on (a 4-vCPU Linux
/// VM shared with other tenants). Times are reported as host seconds
/// rescaled to that speed: the median reference reading of the run sets
/// the scale, so a host that drifts slower or faster for minutes at a time
/// (observed: the same work taking up to 1.7x longer) moves the reference
/// and the workload together and cancels out.
constexpr double kReferenceNominalS = 0.0095;

/// Seed of sub-input `j` of a run seeded with `seed`.
std::uint64_t input_seed(std::uint64_t seed, int j) {
  return fnv1a(std::to_string(seed) + "/" + std::to_string(j));
}

/// The iterations one sub-input got within a run.
struct InputRuns {
  bool seen = false;
  Outcome first;  // outputs of its first iteration
  std::vector<double> wall;
  std::vector<double> traced_wall;
  Metrics layer;  // from its first traced iteration
};

int usage() {
  std::fprintf(stderr,
               "usage: hmr_bench --workload W [--seed N] [--seconds S] "
               "[--inputs K] [--trace FILE] [--smoke] [--via-start]\n"
               "workloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  Config cfg;
  std::uint64_t seed = 42;
  double seconds = 10;
  int n_inputs = 12;
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--inputs") == 0 && has_value) {
      n_inputs = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--via-start") == 0) {
      cfg.via_start = true;
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    return usage();
  }

  // Host time on one input swings with the input itself (Phase I pool
  // blocking moves hybrid-mix's dispatch cost up to 2x between seeds), so a
  // run cycles through several sub-inputs, each generated from its own seed
  // derived from --seed, and reports medians over them. A traced run pairs
  // every traced iteration with an untraced twin, so it profiles fewer.
  const int cycle = trace_path != nullptr ? std::min(n_inputs, 4) : n_inputs;
  std::vector<InputRuns> inputs(static_cast<std::size_t>(cycle));
  std::vector<double> setup_s;
  std::vector<double> reference;
  std::string profile_json;
  int attempted = 0;
  std::vector<std::string> failures;

  const auto start = WallClock::now();
  if (trace_path == nullptr) {
    // Set-up is short next to the measured phase on most workloads; repeat
    // it on its own so its median rests on more samples.
    double spent = 0;
    for (int k = 0; k < 20 && spent < 1.0; ++k) {
      cfg.seed = input_seed(seed, k % cycle);
      const auto t0 = WallClock::now();
      std::unique_ptr<Workload> w = make_workload(name, cfg);
      setup_s.push_back(seconds_since(t0));
      w.reset();
      spent += seconds_since(t0);
    }
  }
  const auto covered = [&] {
    for (const InputRuns& in : inputs) {
      if (in.wall.empty()) return false;
      if (trace_path != nullptr && in.traced_wall.empty()) return false;
    }
    return true;
  };
  for (int it = 0; !covered() || seconds_since(start) < seconds; ++it) {
    const int j = (trace_path != nullptr ? it / 2 : it) % cycle;
    cfg.seed = input_seed(seed, j);
    cfg.traced = trace_path != nullptr && it % 2 == 1;
    reference.push_back(reference_s());

    const auto t0 = WallClock::now();
    std::unique_ptr<Workload> w = make_workload(name, cfg);
    const double setup = seconds_since(t0);
    const auto t1 = WallClock::now();
    w->measure();
    const double wall = seconds_since(t1);
    Outcome o = w->finish();

    attempted += o.ops;
    for (const auto& f : o.failures) {
      failures.push_back("input " + std::to_string(j) + ": " + f);
    }
    InputRuns& in = inputs[static_cast<std::size_t>(j)];
    if (!in.seen) {
      in.seen = true;
      in.first = o;
    } else {
      ++attempted;  // a repeat is an op: its digest must match the first
      if (o.digest != in.first.digest) {
        failures.push_back("input " + std::to_string(j) +
                           (cfg.traced ? " (traced)" : "") +
                           ": sim_digest differs from its first iteration");
      }
    }
    if (cfg.traced) {
      in.traced_wall.push_back(wall);
      if (in.layer.empty()) {
        in.layer = layer_metrics(*w, o);
        const double untraced = median(in.wall);
        in.layer.emplace_back("sim.us_per_event",
                              o.events ? untraced * 1e6 / o.events : 0);
        in.layer.emplace_back("telemetry.trace_overhead_frac",
                              untraced > 0 ? wall / untraced - 1 : 0);
      }
      std::ostringstream os;
      w->profiler()->to_json(os, /*include_wall=*/true);
      profile_json = os.str();
    } else {
      setup_s.push_back(setup);
      in.wall.push_back(wall);
    }
    if (!o.failures.empty()) break;  // a broken run is not worth timing
  }
  if (trace_path != nullptr && !profile_json.empty()) {
    std::ofstream f(trace_path);
    f << profile_json << "\n";
    if (!f) failures.push_back(std::string("cannot write ") + trace_path);
  }

  // Per-input figures, then medians over the inputs; times rescaled to the
  // nominal host speed.
  const double scale = kReferenceNominalS / median(reference);
  for (double& s : setup_s) s *= scale;
  std::uint64_t digest = fnv1a("inputs");
  std::vector<double> wall_s, makespan, jct, sla, events;
  std::vector<Metrics> layers;
  for (const InputRuns& in : inputs) {
    if (!in.seen) continue;
    digest = fnv1a(std::to_string(in.first.digest), digest);
    if (!in.wall.empty()) wall_s.push_back(median(in.wall) * scale);
    if (!in.layer.empty()) layers.push_back(in.layer);
    makespan.push_back(in.first.makespan_s);
    jct.push_back(in.first.mean_jct_s);
    sla.push_back(in.first.sla_violation_frac);
    events.push_back(static_cast<double>(in.first.events));
  }
  const Metrics layer = median_metrics(layers);

  std::string out = "{\"workload\":" + telemetry::json_str(name) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"inputs\":" + std::to_string(cycle) +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failures.size()) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i > 0 ? "," : "") + telemetry::json_str(failures[i]);
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  out += "],\"sim\":{\"digest\":\"" + std::string(hex) +
         "\",\"makespan_s\":" + num(median(makespan)) +
         ",\"mean_jct_s\":" + num(median(jct)) +
         ",\"sla_violation_frac\":" + num(median(sla)) +
         ",\"events\":" + num(median(events)) +
         "},\"setup_s\":" + num_list(setup_s) +
         ",\"wall_s\":" + num_list(wall_s) +
         ",\"speed_scale\":" + num(scale) +
         ",\"peak_rss_mb\":" + num(peak_rss_mb()) + ",\"layer\":{";
  for (std::size_t i = 0; i < layer.size(); ++i) {
    out += (i > 0 ? "," : "") + telemetry::json_str(layer[i].first) + ":" +
           num(layer[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return failures.empty() ? 0 : 1;
}
