// RunReport: one run's summary — per-job JCT breakdowns, per-machine
// utilization and power, SLA percentiles — serialized as JSON.
//
// The struct is plain data so the telemetry library stays dependency-free;
// harness::TestBed::report() fills it from the live engine/cluster/apps
// (see harness/testbed.h). Serialization is deterministic: same seed, same
// bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/units.h"

namespace hybridmr::telemetry {

class Profiler;

struct RunReport {
  struct SeriesPoint {
    double t = 0;  // window start, simulated seconds
    double v = 0;  // mean over the window
  };

  /// Per-job completion-time breakdown (map/shuffle+reduce phase split).
  struct JobRow {
    int id = -1;
    std::string name;
    std::string state;
    int maps = 0;
    int reduces = 0;
    double submit_s = -1;
    double finish_s = -1;
    double jct_s = -1;
    double map_phase_s = -1;
    double reduce_phase_s = -1;
    sim::MegaBytes shuffle_mb;  // total shuffle volume of the job
  };

  /// Per-machine utilization means, energy integral and resampled series.
  struct MachineRow {
    std::string name;
    int vms = 0;
    bool powered = true;
    double mean_cpu = 0;
    double mean_memory = 0;
    double mean_disk = 0;
    double mean_net = 0;
    sim::Joules energy_joules;
    sim::Watts mean_watts;
    std::vector<SeriesPoint> cpu_series;
    std::vector<SeriesPoint> power_series;
  };

  /// Per-interactive-app latency distribution vs. its SLA.
  struct AppRow {
    std::string name;
    sim::Duration sla_s;
    std::size_t samples = 0;
    double mean_s = 0;
    double p50_s = 0;
    double p95_s = 0;
    double p99_s = 0;
    double max_s = 0;
    double violation_fraction = 0;
  };

  double sim_end_s = 0;
  std::size_t events_processed = 0;
  std::uint64_t clamped_past_events = 0;
  // Event-queue accounting — always on (the sim kernel tracks these
  // whether or not the profiler is enabled), and deterministic.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t events_deferred = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t max_event_fanout = 0;
  std::uint64_t flush_scheduled_events = 0;
  std::vector<JobRow> jobs;
  std::vector<MachineRow> machines;
  std::vector<AppRow> apps;

  /// Optional profiler snapshot (set by the builder for profiled runs; may
  /// be null). Only the deterministic *work* section is serialized here —
  /// wall-clock stats go through Profiler::to_json so same-seed report
  /// bytes stay identical with profiling enabled.
  const Profiler* profiler = nullptr;

  void to_json(std::ostream& os) const;
};

}  // namespace hybridmr::telemetry
