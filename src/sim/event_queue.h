// Cancellable discrete-event queue.
//
// Events are (time, callback) pairs ordered by time with FIFO tie-breaking.
// Every scheduled event gets a stable EventId that can later be cancelled in
// O(1); cancelled events are dropped lazily when they reach the head of the
// heap, so cancellation never restructures the heap.
//
// Handlers live in a generation-indexed slot vector rather than a hash map:
// an EventId packs (slot index, slot generation), so push/cancel/pop resolve
// handlers with two array reads and no hashing, and slot reuse means a
// steady-state simulation allocates nothing per event (the slot pool and the
// heap grow to the high-water mark once and are then recycled).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

namespace hybridmr::sim {

/// Simulated time, in seconds since the start of the simulation.
using SimTime = double;

/// The one sanctioned exact-equality comparison for SimTime values.
///
/// SimTime is a double; raw `==`/`!=` on it is a determinism hazard the
/// analyzer (scripts/analyze/hybridmr-analyze, rule simtime-eq) rejects. Exact
/// comparison is legitimate only where both operands came from the same
/// computation (e.g. an event timestamp handed back by the queue); route
/// those cases through this helper so they are visibly intentional.
constexpr bool same_time(SimTime a, SimTime b) {
  return a == b;  // sim-lint: allow(simtime-eq)
}

/// Opaque handle for a scheduled event. Default-constructed ids are invalid.
struct EventId {
  std::uint64_t value = 0;

  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

/// Min-heap of timed callbacks with O(1) cancellation.
///
/// Not thread-safe: the simulation is single-threaded by design (determinism
/// is a feature; see DESIGN.md).
class EventQueue {
 public:
  struct Entry {
    SimTime time = 0;
    EventId id;
    std::function<void()> fn;
  };

  /// Schedules `fn` at absolute time `time`. Returns a cancellation handle.
  EventId push(SimTime time, std::function<void()> fn);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `time` without cancelling it
  /// (the handler and its id stay valid). Returns false if the event
  /// already fired or was cancelled — callers then push() a fresh event.
  ///
  /// This is the lazy-deletion path that replaces cancel+push churn:
  /// postponing is O(1) (the slot's authoritative seat is bumped and the
  /// stale heap item is re-seated only when it surfaces at the head),
  /// advancing pushes one extra heap item at the earlier time and lets the
  /// superseded item skim away as a duplicate. Heap items are therefore a
  /// *superset* of live events; only the slot's (time, seq) seat is
  /// authoritative. defer() never consumes a tie-break seq: the event
  /// keeps the seq it was pushed with, so same-time FIFO ties resolve in
  /// creation order no matter how often an event was rescheduled or how
  /// reschedules were coalesced — tie order is a property of the workload,
  /// not of the reschedule policy. Conservation
  /// (total_pushed == fired + cancelled + live) counts events, not heap
  /// items, so defer() never touches those totals.
  bool defer(EventId id, SimTime time);

  /// Cancels `id` and pushes a fresh event with the same handler at `time`,
  /// *inheriting the original tie-break seq*. Returns the new id, or an
  /// invalid id (and does nothing) when `id` already fired or was
  /// cancelled. This is the eager-cancel reference mode's primitive: it
  /// exercises genuine cancel + re-push heap surgery, but keeps FIFO tie
  /// order anchored to event-creation order exactly like defer() — tie
  /// order is a property of the workload, not of the reschedule policy, so
  /// the two modes stay byte-for-byte equivalent on same-time collisions.
  /// Counts one cancellation and one push.
  EventId repush(EventId id, SimTime time);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event. Empty queue -> nullopt.
  [[nodiscard]] std::optional<SimTime> next_time();

  /// Removes and returns the earliest live event. Empty queue -> nullopt.
  std::optional<Entry> pop();

  /// Drops every pending event (handlers are destroyed, nothing fires).
  /// Returns how many live events were discarded. This is the teardown
  /// path Simulation::shutdown() uses to release callback captures.
  std::size_t clear();

  /// Lifetime totals for work attribution: every event ever pushed is
  /// eventually popped, cancelled, or still live, so
  ///   total_pushed() == pops + total_cancelled() + size()
  /// holds at every quiescent point (the simulation audits this after each
  /// dispatch). clear() counts as cancellation.
  [[nodiscard]] std::uint64_t total_pushed() const { return total_pushed_; }
  [[nodiscard]] std::uint64_t total_cancelled() const {
    return total_cancelled_;
  }

  /// Lifetime count of successful defer() calls (not part of the
  /// conservation identity above; a deferred event still fires or is
  /// cancelled exactly once).
  [[nodiscard]] std::uint64_t total_deferred() const {
    return total_deferred_;
  }

  /// High-water mark of live events (queue-depth peak over the run).
  [[nodiscard]] std::size_t max_size() const { return max_size_; }

 private:
  // An EventId packs the slot index (low 32 bits, biased by one so the
  // all-zero id stays invalid) and the slot's generation at push time
  // (high 32 bits). A slot's generation bumps on every release, so stale
  // ids — fired, cancelled or cleared — can never alias a reused slot.
  struct Slot {
    std::function<void()> fn;
    // Authoritative (time, seq) seat of the event. Heap items carry the
    // seat they were inserted with; defer() moves only the time (seq is
    // fixed at push) and skim() reconciles stale items when they surface,
    // so same-time FIFO ties always resolve in event-creation order,
    // independent of the reschedule history.
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    bool live = false;
  };

  struct HeapItem {
    SimTime time;
    std::uint64_t seq;  // insertion order, for FIFO tie-breaking
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      // Ordered comparisons only: exact ==/!= on SimTime doubles is a
      // lint violation (see sim::same_time).
      if (a.time > b.time) return true;
      if (b.time > a.time) return false;
      return a.seq > b.seq;
    }
  };

  static std::uint32_t slot_index(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t generation(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint64_t make_id(std::uint32_t index, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) |
           (static_cast<std::uint64_t>(index) + 1);
  }

  // The slot a live id refers to, or nullptr when the id is stale/invalid.
  [[nodiscard]] Slot* live_slot(std::uint64_t id);

  // Stores `fn` in a free slot seated at (time, seq), pushes its heap item
  // and counts one push.
  EventId seat(SimTime time, std::uint64_t seq, std::function<void()>&& fn);

  // Destroys the handler, bumps the generation and recycles the slot.
  void release(std::uint32_t index);

  // Drops cancelled items from the heap head.
  void skim();

  // Audit checkpoint: every live handler must have a heap item (an
  // orphaned handler could never fire and would leak its captures).
  void audit_no_orphans() const;

  std::priority_queue<HeapItem, std::vector<HeapItem>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t total_cancelled_ = 0;
  std::uint64_t total_deferred_ = 0;
  std::size_t max_size_ = 0;
};

}  // namespace hybridmr::sim
