// Simulation profiler: scoped wall timers + deterministic work attribution.
//
// Two kinds of evidence, deliberately segregated:
//
//   - *Wall* data (scope timers, calling-context tree, log-bucketed latency
//     histograms) explains where real time goes. It is inherently
//     nondeterministic and is therefore exported only through
//     to_json(os, /*include_wall=*/true) — never into RunReport, whose
//     bytes must be identical across same-seed runs.
//   - *Work* data (counters per trigger cause, dirty-set / queue-depth /
//     fan-out distributions, per-scope invocation counts) explains *why*
//     wall time grows: it counts algorithmic work in integers derived only
//     from simulation state, so two same-seed runs produce byte-identical
//     work sections even with profiling enabled. This is what RunReport's
//     `profile` section carries and what determinism diffs may cover.
//
// The profiler implements sim::DispatchProbe, so the event loop feeds it
// queue depth and per-event fan-out; a heartbeat/stall watchdog rides on the
// same callback to detect hung runs (wall budget, same-sim-time livelock)
// and stop the simulation with a diagnosable reason instead of spinning
// forever (the scale/384 failure mode).
//
// Wall-clock reads are confined to profiler.cc — the determinism analyzer
// grants the wall-clock allowance to this module only (see
// scripts/analyze/determinism.py WALL_CLOCK_SANCTIONED).
//
// A run without profiling keeps a null Profiler* at every instrumentation
// site, so it records nothing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/probe.h"

namespace hybridmr::sim {
class Simulation;
}  // namespace hybridmr::sim

namespace hybridmr::telemetry {

/// Histogram over unsigned values with power-of-two bucket edges: bucket 0
/// holds zeros, bucket b (b >= 1) holds [2^(b-1), 2^b). Covers the full
/// uint64 range in 64 fixed buckets with O(1) record, so it suits both
/// nanosecond latencies (ns .. minutes) and work sizes (queue depths,
/// dirty-set sizes). Recording only touches integer state — a log histogram
/// of deterministic values is itself deterministic.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0;
  }

  /// Approximate percentile, p in [0, 100]; interpolates inside the bucket
  /// and clamps to the exact [min, max] extremes (single-sample histograms
  /// report that sample for every percentile).
  [[nodiscard]] double percentile(double p) const;

  // sim-lint: allow(unused-api) profiler_test: bucket boundaries
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return counts_;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Deterministic work counters, keyed by trigger cause. A fixed enum (not
/// string interning) so the export schema is stable across runs and PRs —
/// profile diffs compare like with like.
enum class WorkCounter {
  kRecomputeDirect,       // Machine::recompute() called eagerly/inline
  kRecomputeDrain,        // recompute from the coalescing drain
  kRecomputeReadBarrier,  // recompute forced by ensure_clean() on a read
  kRecomputeEager,        // coordinator eager mode invalidate->recompute
  kReschedulePushed,      // completion events pushed fresh (none to defer)
  kRescheduleSkipped,     // reschedule() skipped (finish time unchanged)
  kRescheduleDeferred,    // completion events defer()ed in place (lazy path)
  kDrainPasses,           // ReallocCoordinator::drain() invocations
  kDispatchPasses,        // MapReduceEngine::dispatch() invocations
  kDispatchTrackerScans,  // tracker slots examined across dispatch passes
  kDispatchLaunches,      // tasks launched by dispatch
  kSpeculationScans,      // speculation_scan() invocations
  kShuffleTransfers,      // HDFS shuffle transfers started
  kHdfsReads,             // HDFS block reads started
  kHdfsWrites,            // HDFS writes started
  kHdfsFlows,             // point-to-point flows opened
  kFillMembers,           // consumers water-filled, summed over resources
  kFillClasses,           // demand-class rows those fills visited
  kCount,
};

/// Stable snake_case identifier for the JSON export.
const char* to_string(WorkCounter c);

/// Deterministic work-size distributions (integer-valued LogHistograms).
enum class WorkDist {
  kQueueDepth,    // event-queue depth observed at each dispatch
  kEventFanout,   // events scheduled by each event handler
  kDirtySetSize,  // dirty machines per ReallocCoordinator drain
  kCount,
};

const char* to_string(WorkDist d);

/// Interned scope identifier; components intern their scope names once at
/// wiring time (interning is not the hot path) and open Scope guards with
/// the id. Ids are indices, so enter/exit is array arithmetic.
struct ScopeId {
  std::size_t index = static_cast<std::size_t>(-1);
  [[nodiscard]] bool valid() const {
    return index != static_cast<std::size_t>(-1);
  }
};

class Profiler : public sim::DispatchProbe {
 public:
  /// Watchdog thresholds; zero disables the corresponding check. Wall
  /// thresholds are real seconds, not simulated ones.
  struct WatchdogOptions {
    double heartbeat_every_s = 0;  // periodic progress line to `out`
    double wall_budget_s = 0;      // stop the run past this wall time
    // Stop when this many consecutive events fire at one sim timestamp
    // (livelock: the clock is stuck while the queue churns).
    std::uint64_t max_same_time_events = 0;
  };
  /// How often (in events) the watchdog reads the wall clock.
  static constexpr std::uint64_t kWatchdogCheckEvery = 2048;

  /// Per-scope aggregated wall statistics.
  struct WallStats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    LogHistogram hist;  // nanoseconds per invocation
  };

  /// Calling-context-tree node: one (parent chain, scope) combination.
  /// Node 0 is the synthetic root. Creation order follows first-visit
  /// order, which is deterministic for a fixed seed.
  struct Node {
    std::size_t parent = 0;
    std::size_t scope = 0;  // ScopeId::index; unused for the root
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::vector<std::size_t> children;
  };

  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Profiling is off by default even when telemetry is on; TestBed enables
  /// it for Options::profile / HYBRIDMR_PROFILE=1 runs. When disabled every
  /// record path is a no-op and instrumentation sites hold a null Profiler*.
  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Attaches the simulation so the watchdog can stop a stalled run.
  void set_simulation(sim::Simulation* sim) { sim_ = sim; }

  /// Arms the heartbeat/stall watchdog; `out` receives heartbeat and stall
  /// lines (defaults to stderr when null).
  void set_watchdog(const WatchdogOptions& options, std::ostream* out);

  /// Interns `name` (idempotent) and returns its scope id.
  ScopeId intern(const std::string& name);

  void add(WorkCounter c, std::uint64_t n = 1) {
    if (enabled_) work_[static_cast<std::size_t>(c)] += n;
  }

  void record_dist(WorkDist d, std::uint64_t value) {
    if (enabled_) dists_[static_cast<std::size_t>(d)].record(value);
  }

  /// Scope timing; prefer the Scope RAII guard. Unbalanced enter/exit
  /// corrupts the context stack (the exit pops whatever is on top).
  void enter(ScopeId s);
  void exit(ScopeId s);

  // sim::DispatchProbe
  void on_event_begin(sim::SimTime now, std::size_t queue_depth) override;
  void on_event_end(sim::SimTime now, std::uint64_t fanout,
                    std::size_t queue_depth) override;

  /// True when the watchdog stopped the run (wall budget or livelock).
  [[nodiscard]] bool stalled() const { return stalled_; }
  [[nodiscard]] const std::string& stall_reason() const {
    return stall_reason_;
  }

  [[nodiscard]] std::uint64_t work(WorkCounter c) const {
    return work_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const LogHistogram& dist(WorkDist d) const {
    return dists_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] const std::vector<std::string>& scope_names() const {
    return scope_names_;
  }
  [[nodiscard]] const std::vector<WallStats>& wall_stats() const {
    return wall_;
  }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  /// Deterministic work section only (counters, distributions, per-scope
  /// invocation counts) — safe to embed in RunReport.
  void work_to_json(std::ostream& os) const;

  /// Full profile: the work section plus (optionally) wall statistics and
  /// the calling-context tree. Benches write this next to their results as
  /// `<run>.profile.json`.
  void to_json(std::ostream& os, bool include_wall) const;

 private:
  struct Frame {
    std::size_t node = 0;
    std::uint64_t t0_ns = 0;
  };

  void check_watchdog(sim::SimTime now);
  void stall(const std::string& reason);
  std::size_t child_node(std::size_t parent, std::size_t scope);

  bool enabled_ = false;
  sim::Simulation* sim_ = nullptr;

  std::array<std::uint64_t, static_cast<std::size_t>(WorkCounter::kCount)>
      work_{};
  std::array<LogHistogram, static_cast<std::size_t>(WorkDist::kCount)>
      dists_{};

  std::vector<std::string> scope_names_;
  std::map<std::string, std::size_t> scope_index_;
  std::vector<WallStats> wall_;
  std::vector<Node> nodes_;
  std::vector<Frame> stack_;
  ScopeId event_scope_;  // "sim.event", interned at construction

  // Watchdog state (wall times in ns since the first armed check).
  WatchdogOptions watchdog_{};
  // Not owned: process stderr or harness wiring.
  std::ostream* watchdog_out_ = nullptr;
  bool watchdog_armed_ = false;
  std::uint64_t watchdog_start_ns_ = 0;
  std::uint64_t last_heartbeat_ns_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t events_at_heartbeat_ = 0;
  sim::SimTime last_event_time_ = -1;
  std::uint64_t same_time_run_ = 0;
  bool stalled_ = false;
  std::string stall_reason_;
};

/// RAII scope guard. Null profiler (profiling disabled) costs one pointer
/// compare; instrumentation sites cache the pointer as
/// null unless profiling is live, mirroring the `tel_` metric idiom.
class Scope {
 public:
  Scope(Profiler* p, ScopeId s) : p_(p), s_(s) {
    if (p_) p_->enter(s_);
  }
  ~Scope() {
    if (p_) p_->exit(s_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Profiler* p_;
  ScopeId s_;
};

}  // namespace hybridmr::telemetry
