#include "telemetry/trace.h"

#include <map>

#include "telemetry/json.h"

namespace hybridmr::telemetry {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kJobSubmit:
      return "job_submit";
    case EventKind::kJobFinish:
      return "job_finish";
    case EventKind::kTaskStart:
      return "task_start";
    case EventKind::kTaskFinish:
      return "task_finish";
    case EventKind::kTaskKilled:
      return "task_killed";
    case EventKind::kSpeculativeLaunch:
      return "speculative_launch";
    case EventKind::kShuffleStart:
      return "shuffle_start";
    case EventKind::kMigrationStart:
      return "migration_start";
    case EventKind::kMigrationEnd:
      return "migration_end";
    case EventKind::kDrmDecision:
      return "drm_decision";
    case EventKind::kIpsAction:
      return "ips_action";
    case EventKind::kPhase1Placement:
      return "phase1_placement";
    case EventKind::kSlaViolation:
      return "sla_violation";
    case EventKind::kReconfiguration:
      return "reconfiguration";
    case EventKind::kTaskFailed:
      return "task_failed";
    case EventKind::kJobFailed:
      return "job_failed";
    case EventKind::kMapOutputLost:
      return "map_output_lost";
    case EventKind::kTrackerLost:
      return "tracker_lost";
    case EventKind::kTrackerRestored:
      return "tracker_restored";
    case EventKind::kMachineCrash:
      return "machine_crash";
    case EventKind::kMachineReboot:
      return "machine_reboot";
    case EventKind::kMigrationAbort:
      return "migration_abort";
    case EventKind::kReplicaLoss:
      return "replica_loss";
  }
  return "?";
}

const char* category(EventKind kind) {
  switch (kind) {
    case EventKind::kJobSubmit:
    case EventKind::kJobFinish:
      return "job";
    case EventKind::kTaskStart:
    case EventKind::kTaskFinish:
    case EventKind::kTaskKilled:
    case EventKind::kSpeculativeLaunch:
      return "task";
    case EventKind::kShuffleStart:
      return "shuffle";
    case EventKind::kMigrationStart:
    case EventKind::kMigrationEnd:
      return "migration";
    case EventKind::kDrmDecision:
      return "drm";
    case EventKind::kIpsAction:
      return "ips";
    case EventKind::kPhase1Placement:
      return "phase1";
    case EventKind::kSlaViolation:
      return "sla";
    case EventKind::kReconfiguration:
      return "reconfig";
    case EventKind::kTaskFailed:
      return "task";
    case EventKind::kJobFailed:
      return "job";
    case EventKind::kMapOutputLost:
      return "task";
    case EventKind::kTrackerLost:
    case EventKind::kTrackerRestored:
    case EventKind::kMachineCrash:
    case EventKind::kMachineReboot:
      return "fault";
    case EventKind::kMigrationAbort:
      return "migration";
    case EventKind::kReplicaLoss:
      return "storage";
  }
  return "?";
}

namespace {

void write_args(std::ostream& os, const TraceRecorder::Args& args) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : args) {
    if (!first) os << ",";
    first = false;
    os << json_str(k) << ":" << json_str(v);
  }
  os << "}";
}

/// Microseconds with fixed 3-decimal formatting (Perfetto accepts
/// fractional timestamps; fixed precision keeps output byte-stable).
std::string micros(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace

void TraceRecorder::to_jsonl(std::ostream& os) const {
  for (const auto& e : events_) {
    os << "{\"t\":" << json_num(e.time_s);
    if (e.phase == 'X') os << ",\"dur\":" << json_num(e.dur_s);
    os << ",\"kind\":" << json_str(to_string(e.kind))
       << ",\"cat\":" << json_str(category(e.kind))
       << ",\"name\":" << json_str(e.name)
       << ",\"track\":" << json_str(e.track);
    if (!e.args.empty()) {
      os << ",\"args\":";
      write_args(os, e.args);
    }
    os << "}\n";
  }
}

void TraceRecorder::to_chrome(std::ostream& os) const {
  // Assign tids in first-appearance order so output is deterministic.
  std::map<std::string, int> tid_of;
  std::vector<std::string> tracks;
  for (const auto& e : events_) {
    if (tid_of.emplace(e.track, static_cast<int>(tracks.size())).second) {
      tracks.push_back(e.track);
    }
  }
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << i
       << ",\"name\":\"thread_name\",\"args\":{\"name\":"
       << json_str(tracks[i]) << "}}";
  }
  for (const auto& e : events_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":" << json_str(e.name)
       << ",\"cat\":" << json_str(category(e.kind)) << ",\"ph\":\"" << e.phase
       << "\",\"ts\":" << micros(e.time_s);
    if (e.phase == 'X') os << ",\"dur\":" << micros(e.dur_s);
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":0,\"tid\":" << tid_of[e.track] << ",\"args\":";
    TraceRecorder::Args args = e.args;
    args.emplace_back("kind", to_string(e.kind));
    write_args(os, args);
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace hybridmr::telemetry
