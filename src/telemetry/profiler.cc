#include "telemetry/profiler.h"

#include <algorithm>
#include <bit>
#include <chrono>  // sim-lint: allow(wall-clock) — profiler module only
#include <iomanip>
#include <iostream>
#include <ostream>
#include <sstream>

#include "sim/simulation.h"
#include "telemetry/json.h"
#include "telemetry/trace.h"

namespace hybridmr::telemetry {

namespace {

// The one wall-clock read in the codebase. Every caller is in this file;
// the determinism analyzer sanctions exactly this module (see
// scripts/analyze/determinism.py), because the profiler's *wall* outputs
// are segregated from every deterministic artifact.
std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // sim-lint: allow(wall-clock)
              .time_since_epoch())
          .count());
}

}  // namespace

void LogHistogram::record(std::uint64_t v) {
  // bucket 0 <- 0, bucket b <- [2^(b-1), 2^b). bit_width(uint64 max) is
  // 64, which lands in the last bucket.
  const auto b = static_cast<std::size_t>(std::bit_width(v));
  ++counts_[b < kBuckets ? b : kBuckets - 1];
  ++count_;
  sum_ += v;
  if (count_ == 1 || v < min_) min_ = v;
  if (count_ == 1 || v > max_) max_ = v;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0) return static_cast<double>(min_);
  if (p >= 100) return static_cast<double>(max_);
  const double target = p / 100.0 * static_cast<double>(count_);
  double cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (cum + c >= target && c > 0) {
      // Bucket 0 holds only zeros; bucket b >= 1 spans [2^(b-1), 2^b).
      const double lo_edge =
          b == 0 ? 0 : static_cast<double>(std::uint64_t{1} << (b - 1));
      const double width = b == 0 ? 0 : lo_edge;
      const double frac = (target - cum) / c;
      double v = lo_edge + frac * width;
      // The extremes are exact; never report beyond them.
      if (v < static_cast<double>(min_)) v = static_cast<double>(min_);
      if (v > static_cast<double>(max_)) v = static_cast<double>(max_);
      return v;
    }
    cum += c;
  }
  return static_cast<double>(max_);
}

const char* to_string(WorkCounter c) {
  switch (c) {
    case WorkCounter::kRecomputeDirect:
      return "recompute_direct";
    case WorkCounter::kRecomputeDrain:
      return "recompute_drain";
    case WorkCounter::kRecomputeReadBarrier:
      return "recompute_read_barrier";
    case WorkCounter::kRecomputeEager:
      return "recompute_eager";
    case WorkCounter::kReschedulePushed:
      return "reschedule_pushed";
    case WorkCounter::kRescheduleSkipped:
      return "reschedule_skipped";
    case WorkCounter::kRescheduleDeferred:
      return "reschedule_deferred";
    case WorkCounter::kDrainPasses:
      return "drain_passes";
    case WorkCounter::kDispatchPasses:
      return "dispatch_passes";
    case WorkCounter::kDispatchTrackerScans:
      return "dispatch_tracker_scans";
    case WorkCounter::kDispatchLaunches:
      return "dispatch_launches";
    case WorkCounter::kSpeculationScans:
      return "speculation_scans";
    case WorkCounter::kShuffleTransfers:
      return "shuffle_transfers";
    case WorkCounter::kHdfsReads:
      return "hdfs_reads";
    case WorkCounter::kHdfsWrites:
      return "hdfs_writes";
    case WorkCounter::kHdfsFlows:
      return "hdfs_flows";
    case WorkCounter::kFillMembers:
      return "fill_members";
    case WorkCounter::kFillClasses:
      return "fill_classes";
    case WorkCounter::kCount:
      break;
  }
  return "?";
}

const char* to_string(WorkDist d) {
  switch (d) {
    case WorkDist::kQueueDepth:
      return "queue_depth";
    case WorkDist::kEventFanout:
      return "event_fanout";
    case WorkDist::kDirtySetSize:
      return "dirty_set_size";
    case WorkDist::kCount:
      break;
  }
  return "?";
}

Profiler::Profiler() {
  nodes_.push_back(Node{});  // synthetic root
  event_scope_ = intern("sim.event");
}

void Profiler::set_watchdog(const WatchdogOptions& options,
                            std::ostream* out) {
  watchdog_ = options;
  watchdog_out_ = out != nullptr ? out : &std::cerr;
  watchdog_armed_ = watchdog_.heartbeat_every_s > 0 ||
                    watchdog_.wall_budget_s > 0 ||
                    watchdog_.max_same_time_events > 0;
  if (watchdog_armed_) {
    watchdog_start_ns_ = wall_now_ns();
    last_heartbeat_ns_ = watchdog_start_ns_;
    events_at_heartbeat_ = events_seen_;
  }
}

ScopeId Profiler::intern(const std::string& name) {
  auto it = scope_index_.find(name);
  if (it != scope_index_.end()) return ScopeId{it->second};
  const std::size_t index = scope_names_.size();
  scope_names_.push_back(name);
  wall_.emplace_back();
  scope_index_[name] = index;
  return ScopeId{index};
}

std::size_t Profiler::child_node(std::size_t parent, std::size_t scope) {
  for (std::size_t c : nodes_[parent].children) {
    if (nodes_[c].scope == scope) return c;
  }
  const std::size_t index = nodes_.size();
  Node node;
  node.parent = parent;
  node.scope = scope;
  nodes_.push_back(node);
  nodes_[parent].children.push_back(index);
  return index;
}

void Profiler::enter(ScopeId s) {
  if (!enabled() || !s.valid()) return;
  const std::size_t parent = stack_.empty() ? 0 : stack_.back().node;
  const std::size_t node = child_node(parent, s.index);
  stack_.push_back(Frame{node, wall_now_ns()});
}

void Profiler::exit(ScopeId s) {
  if (!enabled() || stack_.empty()) return;
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t t1 = wall_now_ns();
  const std::uint64_t elapsed = t1 > frame.t0_ns ? t1 - frame.t0_ns : 0;
  Node& node = nodes_[frame.node];
  ++node.count;
  node.total_ns += elapsed;
  WallStats& stats = wall_[s.valid() ? s.index : node.scope];
  ++stats.count;
  stats.total_ns += elapsed;
  if (elapsed > stats.max_ns) stats.max_ns = elapsed;
  stats.hist.record(elapsed);
}

void Profiler::record_dist_at(WorkDist d, std::uint64_t value, double now) {
  if (!enabled()) return;
  record_dist(d, value);
  if (trace_ != nullptr) {
    trace_->instant(now, EventKind::kProfileMark, to_string(d), "profiler",
                    {{"value", json_num(static_cast<double>(value))}});
  }
}

void Profiler::on_event_begin(sim::SimTime now, std::size_t queue_depth) {
  (void)now;
  if (!enabled()) return;
  record_dist(WorkDist::kQueueDepth, queue_depth);
  enter(event_scope_);
}

void Profiler::on_event_end(sim::SimTime now, std::uint64_t fanout,
                            std::size_t queue_depth) {
  (void)queue_depth;
  if (!enabled()) return;
  record_dist(WorkDist::kEventFanout, fanout);
  exit(event_scope_);
  ++events_seen_;
  if (!watchdog_armed_ || stalled_) return;
  if (watchdog_.max_same_time_events > 0) {
    if (sim::same_time(now, last_event_time_)) {
      if (++same_time_run_ >= watchdog_.max_same_time_events) {
        std::ostringstream reason;
        reason << "same-time livelock: " << same_time_run_
               << " consecutive events at sim t=" << now;
        stall(reason.str());
        return;
      }
    } else {
      same_time_run_ = 0;
    }
  }
  last_event_time_ = now;
  if (events_seen_ % kWatchdogCheckEvery == 0) check_watchdog(now);
}

void Profiler::check_watchdog(sim::SimTime now) {
  const std::uint64_t t = wall_now_ns();
  const double wall_s =
      static_cast<double>(t - watchdog_start_ns_) / 1e9;
  if (watchdog_.wall_budget_s > 0 && wall_s > watchdog_.wall_budget_s) {
    std::ostringstream reason;
    reason << "wall budget exceeded: " << std::fixed << std::setprecision(1)
           << wall_s << "s > " << watchdog_.wall_budget_s << "s at sim t="
           << std::setprecision(3) << now << " (" << events_seen_
           << " events)";
    stall(reason.str());
    return;
  }
  if (watchdog_.heartbeat_every_s <= 0) return;
  const double since_hb_s =
      static_cast<double>(t - last_heartbeat_ns_) / 1e9;
  if (since_hb_s < watchdog_.heartbeat_every_s) return;
  const double evps =
      since_hb_s > 0
          ? static_cast<double>(events_seen_ - events_at_heartbeat_) /
                since_hb_s
          : 0;
  *watchdog_out_ << "[hb] wall=" << std::fixed << std::setprecision(1)
                 << wall_s << "s sim=" << std::setprecision(3) << now
                 << "s events=" << events_seen_ << " ev/s=" << std::fixed
                 << std::setprecision(0) << evps
                 << " queue=" << (sim_ != nullptr ? sim_->pending_events() : 0)
                 << "\n";
  watchdog_out_->flush();
  last_heartbeat_ns_ = t;
  events_at_heartbeat_ = events_seen_;
}

void Profiler::stall(const std::string& reason) {
  stalled_ = true;
  stall_reason_ = reason;
  if (watchdog_out_ != nullptr) {
    *watchdog_out_ << "[watchdog] STALL: " << reason << "\n";
    watchdog_out_->flush();
  }
  if (sim_ != nullptr) sim_->stop();
}

namespace {

void dist_to_json(std::ostream& os, const LogHistogram& h) {
  os << "{\"count\":" << json_num(static_cast<double>(h.count()))
     << ",\"min\":" << json_num(static_cast<double>(h.min()))
     << ",\"max\":" << json_num(static_cast<double>(h.max()))
     << ",\"mean\":" << json_num(h.mean())
     << ",\"p50\":" << json_num(h.percentile(50))
     << ",\"p95\":" << json_num(h.percentile(95))
     << ",\"p99\":" << json_num(h.percentile(99)) << "}";
}

}  // namespace

void Profiler::work_to_json(std::ostream& os) const {
  os << "{\"counters\":{";
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(WorkCounter::kCount); ++i) {
    if (i > 0) os << ",";
    os << json_str(to_string(static_cast<WorkCounter>(i))) << ":"
       << json_num(static_cast<double>(work_[i]));
  }
  os << "},\"dists\":{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(WorkDist::kCount);
       ++i) {
    if (i > 0) os << ",";
    os << json_str(to_string(static_cast<WorkDist>(i))) << ":";
    dist_to_json(os, dists_[i]);
  }
  os << "},\"scopes\":[";
  for (std::size_t i = 0; i < scope_names_.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"name\":" << json_str(scope_names_[i])
       << ",\"count\":" << json_num(static_cast<double>(wall_[i].count))
       << "}";
  }
  os << "]}";
}

void Profiler::to_json(std::ostream& os, bool include_wall) const {
  os << "{\"enabled\":" << (enabled() ? "true" : "false") << ",\"work\":";
  work_to_json(os);
  if (include_wall) {
    os << ",\"wall\":{\"scopes\":[";
    for (std::size_t i = 0; i < scope_names_.size(); ++i) {
      if (i > 0) os << ",";
      const WallStats& s = wall_[i];
      os << "{\"name\":" << json_str(scope_names_[i])
         << ",\"count\":" << json_num(static_cast<double>(s.count))
         << ",\"total_ms\":"
         << json_num(static_cast<double>(s.total_ns) / 1e6)
         << ",\"mean_us\":"
         << json_num(s.count ? static_cast<double>(s.total_ns) / 1e3 /
                                   static_cast<double>(s.count)
                             : 0)
         << ",\"max_us\":" << json_num(static_cast<double>(s.max_ns) / 1e3)
         << ",\"p50_us\":" << json_num(s.hist.percentile(50) / 1e3)
         << ",\"p95_us\":" << json_num(s.hist.percentile(95) / 1e3)
         << ",\"p99_us\":" << json_num(s.hist.percentile(99) / 1e3) << "}";
    }
    os << "],\"nodes\":[";
    bool first = true;
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      const Node& node = nodes_[i];
      // Path from the root, ";"-joined — collapsed-stack friendly.
      std::vector<std::size_t> chain;
      for (std::size_t j = i; j != 0; j = nodes_[j].parent) {
        chain.push_back(nodes_[j].scope);
      }
      std::string path;
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        if (!path.empty()) path += ";";
        path += scope_names_[*it];
      }
      if (!first) os << ",";
      first = false;
      os << "{\"path\":" << json_str(path)
         << ",\"count\":" << json_num(static_cast<double>(node.count))
         << ",\"total_ns\":" << json_num(static_cast<double>(node.total_ns))
         << "}";
    }
    os << "]}";
  }
  os << "}";
}

void Profiler::print_hotspots(std::ostream& os, std::size_t top_n) const {
  std::vector<std::size_t> order(scope_names_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (wall_[a].total_ns != wall_[b].total_ns) {
                       return wall_[a].total_ns > wall_[b].total_ns;
                     }
                     return wall_[a].count > wall_[b].count;
                   });
  os << "  " << std::left << std::setw(28) << "scope" << std::right
     << std::setw(12) << "calls" << std::setw(12) << "total_ms"
     << std::setw(10) << "mean_us" << std::setw(10) << "p95_us"
     << std::setw(10) << "max_us" << "\n";
  std::size_t shown = 0;
  for (std::size_t i : order) {
    if (shown >= top_n) break;
    const WallStats& s = wall_[i];
    if (s.count == 0) continue;
    ++shown;
    os << "  " << std::left << std::setw(28) << scope_names_[i] << std::right
       << std::setw(12) << s.count << std::setw(12) << std::fixed
       << std::setprecision(2) << static_cast<double>(s.total_ns) / 1e6
       << std::setw(10) << std::setprecision(1)
       << (s.count ? static_cast<double>(s.total_ns) / 1e3 /
                         static_cast<double>(s.count)
                   : 0)
       << std::setw(10) << s.hist.percentile(95) / 1e3 << std::setw(10)
       << static_cast<double>(s.max_ns) / 1e3 << "\n";
  }
  if (shown == 0) os << "  (no scope data collected)\n";
}

}  // namespace hybridmr::telemetry
