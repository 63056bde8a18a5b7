#include "telemetry/report.h"

#include "telemetry/json.h"
#include "telemetry/profiler.h"

namespace hybridmr::telemetry {

namespace {

void write_series(std::ostream& os,
                  const std::vector<RunReport::SeriesPoint>& series) {
  os << "[";
  bool first = true;
  for (const auto& p : series) {
    if (!first) os << ",";
    first = false;
    os << "[" << json_num(p.t) << "," << json_num(p.v) << "]";
  }
  os << "]";
}

}  // namespace

void RunReport::to_json(std::ostream& os) const {
  os << "{\n  \"sim_end_s\":" << json_num(sim_end_s)
     << ",\n  \"events_processed\":" << json_num(double(events_processed))
     << ",\n  \"clamped_past_events\":"
     << json_num(double(clamped_past_events))
     << ",\n  \"events_scheduled\":" << json_num(double(events_scheduled))
     << ",\n  \"events_cancelled\":" << json_num(double(events_cancelled))
     << ",\n  \"events_deferred\":" << json_num(double(events_deferred))
     << ",\n  \"max_queue_depth\":" << json_num(double(max_queue_depth))
     << ",\n  \"max_event_fanout\":" << json_num(double(max_event_fanout))
     << ",\n  \"flush_scheduled_events\":"
     << json_num(double(flush_scheduled_events)) << ",\n  \"jobs\":[";
  bool first = true;
  for (const auto& j : jobs) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"id\":" << j.id << ",\"name\":" << json_str(j.name)
       << ",\"state\":" << json_str(j.state) << ",\"maps\":" << j.maps
       << ",\"reduces\":" << j.reduces
       << ",\"submit_s\":" << json_num(j.submit_s)
       << ",\"finish_s\":" << json_num(j.finish_s)
       << ",\"jct_s\":" << json_num(j.jct_s)
       << ",\"map_phase_s\":" << json_num(j.map_phase_s)
       << ",\"reduce_phase_s\":" << json_num(j.reduce_phase_s)
       << ",\"shuffle_mb\":" << json_num(j.shuffle_mb.value()) << "}";
  }
  os << "\n  ],\n  \"machines\":[";
  first = true;
  for (const auto& m : machines) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\":" << json_str(m.name) << ",\"vms\":" << m.vms
       << ",\"powered\":" << (m.powered ? "true" : "false")
       << ",\"mean_cpu_util\":" << json_num(m.mean_cpu)
       << ",\"mean_memory_util\":" << json_num(m.mean_memory)
       << ",\"mean_disk_util\":" << json_num(m.mean_disk)
       << ",\"mean_net_util\":" << json_num(m.mean_net)
       << ",\"energy_joules\":" << json_num(m.energy_joules.value())
       << ",\"mean_watts\":" << json_num(m.mean_watts.value())
       << ",\"cpu_util_series\":";
    write_series(os, m.cpu_series);
    os << ",\"power_watts_series\":";
    write_series(os, m.power_series);
    os << "}";
  }
  os << "\n  ],\n  \"apps\":[";
  first = true;
  for (const auto& a : apps) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\":" << json_str(a.name)
       << ",\"sla_s\":" << json_num(a.sla_s.value())
       << ",\"samples\":" << json_num(double(a.samples))
       << ",\"mean_s\":" << json_num(a.mean_s)
       << ",\"p50_s\":" << json_num(a.p50_s)
       << ",\"p95_s\":" << json_num(a.p95_s)
       << ",\"p99_s\":" << json_num(a.p99_s)
       << ",\"max_s\":" << json_num(a.max_s)
       << ",\"violation_fraction\":" << json_num(a.violation_fraction)
       << "}";
  }
  os << "\n  ]";
  // Deterministic work-attribution section only; wall-clock stats are
  // deliberately excluded (see report.h).
  if (profiler != nullptr && profiler->enabled()) {
    os << ",\n  \"profile\":";
    profiler->work_to_json(os);
  }
  os << "\n}\n";
}

}  // namespace hybridmr::telemetry
