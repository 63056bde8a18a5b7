// Structured event tracing for whole simulation runs.
//
// Components emit typed events (task lifecycle, shuffle flows, migrations,
// DRM/IPS decisions, SLA violations, reconfigurations); the recorder stores
// them in emission order and exports either JSONL (one event per line, easy
// to grep/pandas) or Chrome trace_event JSON that loads directly in
// chrome://tracing and Perfetto, with one timeline track per machine/VM/job.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>


namespace hybridmr::telemetry {

enum class EventKind {
  kJobSubmit,
  kJobFinish,
  kTaskStart,
  kTaskFinish,
  kTaskKilled,
  kSpeculativeLaunch,
  kShuffleStart,
  kMigrationStart,
  kMigrationEnd,
  kDrmDecision,
  kIpsAction,
  kPhase1Placement,
  kSlaViolation,
  kReconfiguration,
  // Fault injection & recovery (src/faults + engine/storage hooks).
  kTaskFailed,
  kJobFailed,
  kMapOutputLost,
  kTrackerLost,
  kTrackerRestored,
  kMachineCrash,
  kMachineReboot,
  kMigrationAbort,
  kReplicaLoss,
};

/// Stable event-kind identifier used in the JSONL export.
const char* to_string(EventKind kind);
/// Chrome trace category for the kind ("task", "migration", ...).
const char* category(EventKind kind);

struct TraceEvent {
  double time_s = 0;  // simulated seconds (span start for complete events)
  double dur_s = 0;   // span length; 0 for instants
  EventKind kind = EventKind::kTaskStart;
  char phase = 'i';  // 'i' instant, 'X' complete span
  std::string name;
  std::string track;  // timeline row: machine, VM, job or subsystem name
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceRecorder {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  /// Point event at `now`.
  void instant(double now, EventKind kind, std::string name,
               std::string track, Args args = {}) {
    events_.push_back({now, 0, kind, 'i', std::move(name), std::move(track),
                       std::move(args)});
  }

  /// Span event covering [start_s, start_s + dur_s] (emitted at completion,
  /// when the duration is known).
  void complete(double start_s, double dur_s, EventKind kind,
                std::string name, std::string track, Args args = {}) {
    events_.push_back({start_s, dur_s < 0 ? 0 : dur_s, kind, 'X',
                       std::move(name), std::move(track), std::move(args)});
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// One JSON object per line; deterministic for a fixed seed.
  // sim-lint: allow(unused-api) mapred_test, realloc_test: trace digests
  void to_jsonl(std::ostream& os) const;

  /// Chrome trace_event JSON (the "JSON Array Format" with metadata), valid
  /// input for chrome://tracing and Perfetto. Simulated seconds map to
  /// trace microseconds; each distinct `track` becomes one tid with a
  /// thread_name metadata record.
  void to_chrome(std::ostream& os) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace hybridmr::telemetry
