// Cancellable discrete-event queue.
//
// Events are (time, callback) pairs ordered by time with FIFO tie-breaking.
// Every scheduled event gets a stable EventId that can later be cancelled
// or moved to another time. The heap is exact: it holds one item per live
// event and nothing else. Each live event records its heap position, so
// cancel() erases at that position and defer() rewrites the time there and
// sifts.
//
// Handlers live in a generation-indexed slot vector rather than a hash map:
// an EventId packs (slot index, slot generation), so push/cancel/pop resolve
// handlers with two array reads and no hashing, and slot reuse means a
// steady-state simulation allocates nothing per event (the slot pool and the
// heap grow to the high-water mark of live events once and are then
// recycled).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
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

/// Indexed min-heap of timed callbacks.
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
  /// The event's heap item is rewritten where it sits and sifted toward
  /// the root when it moves earlier, toward the leaves when it moves
  /// later: O(log n) either way, and the heap never holds a second item
  /// for it. defer() never consumes a tie-break seq: the event keeps the
  /// seq it was pushed with, so same-time FIFO ties resolve in creation
  /// order no matter how often an event was rescheduled or how reschedules
  /// were coalesced — tie order is a property of the workload, not of the
  /// reschedule policy. Conservation
  /// (total_pushed == fired + cancelled + live) counts events, so defer()
  /// never touches those totals.
  bool defer(EventId id, SimTime time);

  /// Number of live (non-cancelled) events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event. Empty queue -> nullopt.
  [[nodiscard]] std::optional<SimTime> next_time() const;

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
  // Children per heap node. Four halves the depth of a binary heap, and a
  // node's children sit side by side, so a sift reads fewer cache lines.
  static constexpr std::uint32_t kArity = 4;
  // Seat::pos of a slot that holds no event.
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;

  // An EventId packs the slot index (low 32 bits, biased by one so the
  // all-zero id stays invalid) and the slot's generation at push time
  // (high 32 bits). A slot's generation bumps on every release, so stale
  // ids — fired, cancelled or cleared — can never alias a reused slot.
  //
  // Per-slot bookkeeping is kept apart from the handlers: the sifts
  // rewrite the position of every item they move, and these 8-byte seats
  // pack eight to a cache line where a handler alone takes 32 bytes.
  struct Seat {
    std::uint32_t gen = 0;
    std::uint32_t pos = kNotQueued;  // heap index while the slot is live
  };

  // The authoritative (time, seq) of one live event. seq is the push
  // order and never changes, so same-time ties resolve in creation order.
  struct Item {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Item& a, const Item& b) {
    // Ordered comparisons only: exact ==/!= on SimTime doubles is a lint
    // violation (see sim::same_time).
    if (a.time < b.time) return true;
    if (b.time < a.time) return false;
    return a.seq < b.seq;
  }

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

  // The heap position of the event a live id refers to, or kNotQueued
  // when the id is stale or invalid.
  [[nodiscard]] std::uint32_t live_pos(std::uint64_t id) const;

  // Writes `item` at heap index `pos` and records the position in its seat.
  void place(std::uint32_t pos, const Item& item) {
    heap_[pos] = item;
    seats_[item.slot].pos = pos;
  }

  // Moves the hole at `pos` toward the root (sift_up) or the leaves
  // (sift_down) until `item` fits there, then places it.
  void sift_up(std::uint32_t pos, const Item& item);
  void sift_down(std::uint32_t pos, const Item& item);

  // Removes the item at `pos` (the last item fills the hole and sifts).
  // Returns the slot that filled it, or kNotQueued when `pos` was last.
  std::uint32_t erase_at(std::uint32_t pos);

  // Destroys the handler, bumps the generation and recycles the slot.
  void release(std::uint32_t index);

  // Audit checkpoint: the heap holds exactly the live events, and `index`
  // sits at the position its seat records. Every operation checks the
  // slot it acts on before acting and the slot it placed afterwards
  // (kNotQueued: none).
  void audit_heap(std::uint32_t index) const;

  std::vector<Item> heap_;
  std::vector<Seat> seats_;
  std::vector<std::function<void()>> handlers_;  // by slot index
  std::vector<std::uint32_t> free_slots_;
  // Counted by push and release, apart from heap_.size(), so that
  // heap_matches_live compares two independent tallies.
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t total_cancelled_ = 0;
  std::uint64_t total_deferred_ = 0;
  std::size_t max_size_ = 0;
};

}  // namespace hybridmr::sim
