// The simulation kernel: a virtual clock plus an event queue.
//
// All substrate components (machines, tasks, schedulers, monitors) hold a
// reference to one Simulation and express the passage of time exclusively
// through it. Runs are deterministic for a fixed seed.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/invariants.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/probe.h"
#include "sim/rng.h"
#include "sim/units.h"

namespace hybridmr::sim {

/// Handle for a periodic task registered with Simulation::every().
class PeriodicHandle {
 public:
  PeriodicHandle() = default;

  /// Stops future firings. Safe to call repeatedly or on a default handle.
  void cancel() {
    if (alive_) *alive_ = false;
  }

  [[nodiscard]] bool active() const { return alive_ && *alive_; }

 private:
  friend class Simulation;
  explicit PeriodicHandle(std::shared_ptr<bool> alive)
      : alive_(std::move(alive)) {}
  std::shared_ptr<bool> alive_;
};

/// Single-threaded discrete-event simulation.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 42) : rng_(seed), seed_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (must be >= now()).
  /// A past `t` is clamped to now(): the event still fires, but the misuse
  /// is counted (clamped_past_events()) and logged so it cannot pass
  /// silently in release builds. Under HYBRIDMR_AUDIT a past `t` is a hard
  /// violation: a component computing target times incorrectly corrupts
  /// event ordering, so the audit build aborts instead of papering over it.
  EventId at(SimTime t, std::function<void()> fn) {
    return queue_.push(clamp_to_now(t, "at"), std::move(fn));
  }

  /// Schedules `fn` after `delay` seconds (must be >= 0).
  EventId after(SimTime delay, std::function<void()> fn) {
    assert(delay >= 0 && "negative delay");
    return at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Strongly-typed span overload: after(bytes / rate, ...) composes
  /// without unwrapping at every call site.
  EventId after(Duration delay, std::function<void()> fn) {
    return after(delay.value(), std::move(fn));
  }

  /// Cancels a pending event. Returns false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves a pending event to absolute time `t` without cancelling it
  /// (see EventQueue::defer — O(1) when postponing, one heap push when
  /// advancing). Returns false when the event already fired or was
  /// cancelled; callers then schedule a fresh one with at(). Past times
  /// clamp to now() under the same audit/log policy as at().
  bool defer(EventId id, SimTime t) {
    return queue_.defer(id, clamp_to_now(t, "defer"));
  }

  /// Registers `fn` to run every `period` seconds, first firing after
  /// `initial_delay` (defaults to one period). Cancel via the handle.
  PeriodicHandle every(SimTime period, std::function<void()> fn,
                       SimTime initial_delay = -1);

  /// Strongly-typed span overload of every().
  PeriodicHandle every(Duration period, std::function<void()> fn,
                       Duration initial_delay = Duration{-1}) {
    return every(period.value(), std::move(fn), initial_delay.value());
  }

  /// Runs until the event queue drains. Returns events processed.
  std::size_t run();

  /// Runs until simulated time reaches `t` (clock ends exactly at `t` if
  /// events remain) or the queue drains. Returns events processed.
  std::size_t run_until(SimTime t);

  /// Requests that run()/run_until() return after the current event.
  void stop() { stop_requested_ = true; }

  /// Discards every pending event without firing it, destroying the
  /// handlers (and the captures they own). Call at teardown when a run is
  /// abandoned mid-flight — e.g. interactive tickers or in-flight HDFS
  /// flows still have events queued — so no callback state outlives the
  /// simulation. Returns the number of events discarded. Must not be
  /// called from inside a running event.
  std::size_t shutdown() {
    assert(!running_ && "shutdown() inside run() — use stop() first");
    return queue_.clear();
  }

  /// Live events still pending in the queue.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events processed since construction.
  [[nodiscard]] std::size_t events_processed() const { return processed_; }

  /// Total events ever scheduled (fired, cancelled or still pending).
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return queue_.total_pushed();
  }

  /// Total events cancelled (explicit cancel() plus shutdown() discards).
  [[nodiscard]] std::uint64_t events_cancelled() const {
    return queue_.total_cancelled();
  }

  /// Total events moved in place by defer() instead of cancel+re-push.
  [[nodiscard]] std::uint64_t events_deferred() const {
    return queue_.total_deferred();
  }

  /// Queue-depth high-water mark over the run.
  [[nodiscard]] std::size_t max_queue_depth() const {
    return queue_.max_size();
  }

  /// Largest number of events any single handler scheduled (fan-out peak;
  /// superlinear growth of this with cluster size is an O(N^2) smell).
  [[nodiscard]] std::uint64_t max_event_fanout() const {
    return max_event_fanout_;
  }

  /// Events scheduled from flush hooks (deferred-drain work) rather than
  /// from inside event handlers.
  [[nodiscard]] std::uint64_t flush_scheduled_events() const {
    return flush_scheduled_events_;
  }

  /// Attaches (or detaches, with nullptr) the dispatch probe. The probe is
  /// invoked around every event handler; see sim/probe.h.
  void set_probe(DispatchProbe* probe) { probe_ = probe; }

  /// How many at() calls asked for a past time and were clamped to now().
  /// Non-zero means a component computes target times incorrectly.
  [[nodiscard]] std::uint64_t clamped_past_events() const {
    return clamped_past_events_;
  }

  /// True while inside run()/run_until().
  [[nodiscard]] bool running() const { return running_; }

  /// Registers a hook that runs before every event dispatch — while now()
  /// is still the previous timestamp — and once more when a run loop
  /// exits. This is how deferred work (the cluster's dirty-machine set)
  /// coalesces: mutations mark state dirty, the hook settles it exactly
  /// once per event boundary before the clock can advance past it.
  /// Returns a token for remove_flush_hook(). Hooks may push new events.
  std::size_t add_flush_hook(std::function<void()> hook);

  /// Deregisters a hook. Safe with an already-removed token.
  void remove_flush_hook(std::size_t token);

  /// Runs every registered flush hook now. Idempotent between mutations;
  /// called automatically at event boundaries and run-loop exits.
  void flush() {
    for (const auto& hook : flush_hooks_) {
      if (hook) hook();
    }
  }

  Rng& rng() { return rng_; }

  /// A named auxiliary Rng stream owned by this simulation. Streams are
  /// created on first use; an explicit `seed` wins, otherwise the stream
  /// seeds deterministically from the main seed mixed with the name, so
  /// two same-seed simulations that create the same streams agree draw for
  /// draw whatever order the streams are created in. Subsequent calls
  /// return the existing stream unchanged and ignore the seed argument, so
  /// every component asking for a name shares one stream. Components with
  /// private randomness (FaultInjector's failure clocks, the migration
  /// dirty-rate jitter) draw from a named stream instead of owning a bare
  /// Rng, so their draws never perturb the main stream's sequence.
  Rng& named_rng(const std::string& name);
  Rng& named_rng(const std::string& name, std::uint64_t seed);

  /// Names of the registered auxiliary streams, in sorted order.
  [[nodiscard]] std::vector<std::string> named_rng_streams() const;

 private:
  bool dispatch_one();

  // Clamps a past target time `t` to now() on behalf of `op` (at or
  // defer): counted in clamped_past_events() and logged, or a hard audit
  // violation under HYBRIDMR_AUDIT.
  SimTime clamp_to_now(SimTime t, const char* op) {
    if (t < now_) {
      HYBRIDMR_AUDIT_CHECK(false, "sim.simulation", "no_past_scheduling",
                           now_, {{"requested_t", audit::num(t)},
                                  {"now", audit::num(now_)}});
      ++clamped_past_events_;
      log_warn(now_, "sim",
               std::string(op) + "(" + std::to_string(t) +
                   ") is in the past; clamped to now (event " +
                   std::to_string(clamped_past_events_) + " clamped)");
      t = now_;
    }
    return t;
  }

  EventQueue queue_;
  Rng rng_;
  std::uint64_t seed_;
  // Ordered by name so named_rng_streams() lists the streams in a
  // reproducible order.
  std::map<std::string, Rng> named_rngs_;
  // Slots are never erased (tokens stay stable); removal nulls the entry.
  std::vector<std::function<void()>> flush_hooks_;
  SimTime now_ = 0;
  std::size_t processed_ = 0;
  std::uint64_t clamped_past_events_ = 0;
  std::uint64_t max_event_fanout_ = 0;
  std::uint64_t flush_scheduled_events_ = 0;
  // Not owned: the harness or profiler that attached it outlives the run.
  DispatchProbe* probe_ = nullptr;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace hybridmr::sim
