// End-to-end scale sweep: a fig8-class heterogeneous batch (sort + grep +
// wordcount) on a virtualized cluster, swept from the paper's 24 physical
// machines up to 384. Reports host wall-clock per sweep point plus simulated
// event throughput; with --out FILE it also writes a google-benchmark-shaped
// JSON file that scripts/perf_gate.py compares against the committed
// BENCH_scale.json (without --out nothing is written, so a sweep run from
// the repo root cannot overwrite that baseline). Each point also reports
// the process's peak resident set after it (peak_rss_mb, ungated): points
// run in ascending size, so that high-water mark is the point's own peak.
//
// With --profile FILE the sweep additionally runs with the simulation
// profiler enabled and writes one profile JSON (work counters, wall-time
// hotspots, calling-context tree) per sweep point, keyed "scale/N" — the
// input format of scripts/profile_report.py. --heartbeat-s / --wall-budget-s
// arm the stall watchdog; a watchdog stall exits with code 3 so a hung
// sweep fails loudly instead of spinning forever. Without --profile the
// behaviour (and thus the perf-gate measurement) is byte-identical to
// before the profiler existed.
//
// Usage: bench_scale [--sizes 24,96,384] [--seed N] [--out FILE]
//                    [--profile FILE] [--heartbeat-s S] [--wall-budget-s S]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/testbed.h"
#include "workload/benchmarks.h"

namespace {

using namespace hybridmr;

// A benchmark harness is the one place where wall-clock time is the
// measurand rather than a determinism hazard: nothing inside the simulation
// ever sees these readings.
using WallClock = std::chrono::steady_clock;  // sim-lint: allow(wall-clock)

struct ProfileOptions {
  bool enabled = false;
  double heartbeat_s = 0;
  double wall_budget_s = 0;
};

struct SweepPoint {
  int pms = 0;
  int jobs = 0;
  double wall_ms = 0;
  double sim_end_s = 0;
  std::size_t events = 0;
  double peak_rss_mb = 0;
  std::string profile_json;  // empty unless profiled
  bool stalled = false;
};

// The process's peak resident set so far (VmHWM), in MB; 0 where
// /proc/self/status cannot be read.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

SweepPoint run_point(int pms, std::uint64_t seed, const ProfileOptions& prof) {
  harness::TestBed::Options opt;
  opt.seed = seed;
  // Telemetry off: the sweep measures the scheduling/allocation core, and
  // both the committed baseline and the gate run use the same setting.
  opt.telemetry = false;
  opt.profile = prof.enabled;
  opt.watchdog.heartbeat_every_s = prof.heartbeat_s;
  opt.watchdog.wall_budget_s = prof.wall_budget_s;
  harness::TestBed bed(opt);
  bed.add_virtual_nodes(pms, /*vms_per_host=*/2);

  // Fig. 8-class heterogeneous batch, scaled with the cluster so per-node
  // work stays constant: one workload::fig8_wave() per 8 hosts.
  std::vector<mapred::JobSpec> specs;
  const std::vector<mapred::JobSpec> wave = workload::fig8_wave();
  const int waves = pms / 8;
  for (int i = 0; i < waves; ++i) {
    specs.insert(specs.end(), wave.begin(), wave.end());
  }

  const auto t0 = WallClock::now();
  bed.run_jobs(specs);
  const std::chrono::duration<double, std::milli> wall = WallClock::now() - t0;

  SweepPoint p;
  p.pms = pms;
  p.jobs = static_cast<int>(specs.size());
  p.wall_ms = wall.count();
  p.sim_end_s = bed.sim().now();
  p.events = bed.sim().events_processed();
  if (telemetry::Profiler* profiler = bed.profiler()) {
    std::ostringstream os;
    profiler->to_json(os, /*include_wall=*/true);
    p.profile_json = os.str();
    p.stalled = profiler->stalled();
  }
  return p;
}

std::vector<int> parse_sizes(const char* csv) {
  std::vector<int> out;
  int value = 0;
  bool have = false;
  for (const char* c = csv;; ++c) {
    if (*c >= '0' && *c <= '9') {
      value = value * 10 + (*c - '0');
      have = true;
    } else {
      if (have) out.push_back(value);
      value = 0;
      have = false;
      if (*c == '\0') break;
    }
  }
  return out;
}

void write_json(const char* path, const std::vector<SweepPoint>& points) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f,
                 "    {\"name\": \"scale/%d\", \"real_time\": %.3f, "
                 "\"time_unit\": \"ms\", \"jobs\": %d, \"events\": %zu, "
                 "\"events_per_sec\": %.1f, \"sim_end_s\": %.3f, "
                 "\"peak_rss_mb\": %.1f}%s\n",
                 p.pms, p.wall_ms, p.jobs, p.events,
                 p.wall_ms > 0 ? 1000.0 * static_cast<double>(p.events) /
                                     p.wall_ms
                               : 0.0,
                 p.sim_end_s, p.peak_rss_mb, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("bench_scale: wrote %s\n", path);
}

// One profile object per sweep point, keyed by the benchmark name — the
// format scripts/profile_report.py consumes.
void write_profiles(const char* path, const std::vector<SweepPoint>& points) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path);
    return;
  }
  f << "{\n";
  bool first = true;
  for (const auto& p : points) {
    if (p.profile_json.empty()) continue;
    if (!first) f << ",\n";
    first = false;
    f << "\"scale/" << p.pms << "\":" << p.profile_json;
  }
  f << "\n}\n";
  std::printf("bench_scale: wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes{24, 96, 384};
  std::uint64_t seed = 42;
  const char* out = nullptr;
  ProfileOptions prof;
  const char* profile_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sizes") == 0 && i + 1 < argc) {
      sizes = parse_sizes(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      prof.enabled = true;
      profile_out = argv[++i];
    } else if (std::strcmp(argv[i], "--heartbeat-s") == 0 && i + 1 < argc) {
      prof.heartbeat_s = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--wall-budget-s") == 0 && i + 1 < argc) {
      prof.wall_budget_s = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--sizes CSV] [--seed N] [--out FILE] "
                   "[--profile FILE] [--heartbeat-s S] [--wall-budget-s S]\n");
      return 2;
    }
  }

  std::vector<SweepPoint> points;
  bool stalled = false;
  std::printf("%6s %6s %12s %12s %14s %12s %12s\n", "pms", "jobs", "wall_ms",
              "sim_end_s", "events", "events/sec", "peak_rss_mb");
  for (int pms : sizes) {
    SweepPoint p = run_point(pms, seed, prof);
    p.peak_rss_mb = peak_rss_mb();
    std::printf("%6d %6d %12.1f %12.1f %14zu %12.0f %12.1f\n", p.pms, p.jobs,
                p.wall_ms, p.sim_end_s, p.events,
                p.wall_ms > 0
                    ? 1000.0 * static_cast<double>(p.events) / p.wall_ms
                    : 0.0,
                p.peak_rss_mb);
    points.push_back(p);
    if (p.stalled) {
      stalled = true;
      break;  // the watchdog stopped the sim mid-run; larger points would too
    }
  }
  if (out != nullptr) write_json(out, points);
  if (profile_out != nullptr) write_profiles(profile_out, points);
  if (stalled) {
    std::fprintf(stderr, "bench_scale: watchdog stall (see log above)\n");
    return 3;
  }
  return 0;
}
