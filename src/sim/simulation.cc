#include "sim/simulation.h"

#include <cmath>
#include <limits>
#include <utility>

namespace hybridmr::sim {

PeriodicHandle Simulation::every(SimTime period, std::function<void()> fn,
                                 SimTime initial_delay) {
  assert(period > 0 && "period must be positive");
  auto alive = std::make_shared<bool>(true);
  // Each firing reschedules the next unless the handle was cancelled. The
  // ticker closure holds only a *weak* reference to itself: the pending
  // event owns the one strong reference, so a cancelled or drained ticker
  // is destroyed with its queue entry instead of keeping itself (and the
  // user callback's captures) alive in a shared_ptr cycle.
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  *tick = [this, period, alive, weak_tick, fn = std::move(fn)]() {
    if (!*alive) return;
    fn();
    if (!*alive) return;
    if (auto self = weak_tick.lock()) {
      after(period, [self]() { (*self)(); });
    }
  };
  after(initial_delay >= 0 ? initial_delay : period, [tick]() { (*tick)(); });
  return PeriodicHandle(alive);
}

std::size_t Simulation::add_flush_hook(std::function<void()> hook) {
  flush_hooks_.push_back(std::move(hook));
  return flush_hooks_.size() - 1;
}

void Simulation::remove_flush_hook(std::size_t token) {
  if (token < flush_hooks_.size()) flush_hooks_[token] = nullptr;
}

bool Simulation::dispatch_one() {
  // Deferred work flushes *before* the pop: a drain can reschedule
  // completion events, which may change what the earliest event is.
  // Events a flush hook schedules are attributed to the flush boundary,
  // not to the event whose handler runs next.
  const std::uint64_t pushed_before_flush = queue_.total_pushed();
  flush();
  flush_scheduled_events_ += queue_.total_pushed() - pushed_before_flush;
  // Events parked at infinity mean "never at the current allocation"
  // (stalled workload completions, see Machine::reschedule). When nothing
  // finite remains, the simulation is quiescent: time cannot reach those
  // events, so the run is over. shutdown() discards them as cancelled.
  const auto next = queue_.next_time();
  if (!next || !std::isfinite(*next)) return false;
  auto entry = queue_.pop();
  if (!entry) return false;
  // The virtual clock only moves forward: at() clamps (or aborts, under
  // audit) past target times, and the queue pops in time order.
  HYBRIDMR_AUDIT_CHECK(entry->time >= now_, "sim.simulation",
                       "monotonic_time", now_,
                       {{"event_time", audit::num(entry->time)},
                        {"now", audit::num(now_)}});
  now_ = entry->time;
  if (probe_) probe_->on_event_begin(now_, queue_.size());
  const std::uint64_t pushed_before = queue_.total_pushed();
  entry->fn();
  const std::uint64_t fanout = queue_.total_pushed() - pushed_before;
  if (fanout > max_event_fanout_) max_event_fanout_ = fanout;
  ++processed_;
  // Conservation across the flush boundary: every event ever scheduled is
  // by now processed, cancelled, or still live. A mismatch means an event
  // left the queue without being dispatched or accounted as cancelled.
  HYBRIDMR_AUDIT_CHECK(
      queue_.total_pushed() ==
          processed_ + queue_.total_cancelled() + queue_.size(),
      "sim.simulation", "event_conservation", now_,
      {{"scheduled", audit::num(static_cast<double>(queue_.total_pushed()))},
       {"processed", audit::num(static_cast<double>(processed_))},
       {"cancelled",
        audit::num(static_cast<double>(queue_.total_cancelled()))},
       {"live", audit::num(static_cast<double>(queue_.size()))}});
  if (probe_) probe_->on_event_end(now_, fanout, queue_.size());
  return true;
}

std::size_t Simulation::run() {
  const std::size_t before = processed_;
  running_ = true;
  stop_requested_ = false;
  while (!stop_requested_ && dispatch_one()) {
  }
  // A stop() request can leave the last event's deferred work pending.
  flush();
  running_ = false;
  return processed_ - before;
}

namespace {

// FNV-1a: stable, dependency-free name hash for deriving per-stream seeds
// from the main seed. Collisions only correlate two streams' seeds, never
// their draws, so the cheap hash is fine.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Rng& Simulation::named_rng(const std::string& name) {
  return named_rng(name, seed_ ^ fnv1a(name));
}

Rng& Simulation::named_rng(const std::string& name, std::uint64_t seed) {
  auto it = named_rngs_.find(name);
  if (it == named_rngs_.end()) {
    it = named_rngs_.emplace(name, Rng(seed)).first;
  }
  return it->second;
}

std::vector<std::string> Simulation::named_rng_streams() const {
  std::vector<std::string> out;
  out.reserve(named_rngs_.size());
  for (const auto& [name, rng] : named_rngs_) out.push_back(name);
  return out;
}

std::size_t Simulation::run_until(SimTime t) {
  const std::size_t before = processed_;
  running_ = true;
  stop_requested_ = false;
  while (!stop_requested_) {
    // Flush before peeking: a drain can push new events (e.g. rescheduled
    // completions) earlier than the current head.
    flush();
    auto next = queue_.next_time();
    if (!next || *next > t || !std::isfinite(*next)) break;
    dispatch_one();
  }
  // Settle pending deferred work at the final event's timestamp before the
  // clock jumps forward to t.
  flush();
  if (now_ < t && t < std::numeric_limits<double>::infinity()) now_ = t;
  running_ = false;
  return processed_ - before;
}

}  // namespace hybridmr::sim
