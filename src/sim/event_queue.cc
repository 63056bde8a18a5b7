#include "sim/event_queue.h"

#include <utility>

#include "audit/invariants.h"

namespace hybridmr::sim {

EventQueue::Slot* EventQueue::live_slot(std::uint64_t id) {
  if (id == 0) return nullptr;
  const std::uint32_t index = slot_index(id);
  if (index >= slots_.size()) return nullptr;
  Slot& slot = slots_[index];
  if (!slot.live || slot.gen != generation(id)) return nullptr;
  return &slot;
}

void EventQueue::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = nullptr;  // destroy the handler (and its captures) immediately
  slot.live = false;
  ++slot.gen;  // invalidate every outstanding id for this slot
  free_slots_.push_back(index);
  --live_;
}

EventId EventQueue::push(SimTime time, std::function<void()> fn) {
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.time = time;
  slot.seq = next_seq_++;
  slot.live = true;
  const std::uint64_t id = make_id(index, slot.gen);
  heap_.push(HeapItem{time, slot.seq, id});
  ++live_;
  ++total_pushed_;
  if (live_ > max_size_) max_size_ = live_;
  return EventId{id};
}

bool EventQueue::cancel(EventId id) {
  Slot* slot = live_slot(id.value);
  if (slot == nullptr) return false;
  release(slot_index(id.value));
  ++total_cancelled_;
  return true;
}

bool EventQueue::defer(EventId id, SimTime time) {
  Slot* slot = live_slot(id.value);
  if (slot == nullptr) return false;
  const bool advanced = time < slot->time;
  // The slot keeps its ORIGINAL push seq: rescheduling never consumes a
  // tie-break number, so same-time FIFO order is anchored to creation
  // order and is invariant under how many times — or in which coalescing
  // regime — an event was rescheduled on the way there. (Consuming a
  // fresh seq here would make tie order depend on the realloc drain
  // policy; see the realloc determinism tests.)
  slot->time = time;
  if (advanced) {
    // Moving earlier: the existing heap item would surface too late, so a
    // fresh item carries the new seat and the old one skims away as a
    // stale duplicate when it reaches the head.
    heap_.push(HeapItem{time, slot->seq, id.value});
  }
  // Postponing (or re-seating at the same time) needs no heap work at all:
  // the stale item surfaces at its old position and skim() re-seats it.
  ++total_deferred_;
  return true;
}

void EventQueue::skim() {
  while (!heap_.empty()) {
    const HeapItem top = heap_.top();
    const Slot* slot = live_slot(top.id);
    if (slot == nullptr) {
      heap_.pop();  // cancelled, fired, or a defer()-superseded duplicate
      continue;
    }
    if (slot->time > top.time) {
      // Stale seat (the slot was postponed since this item was inserted):
      // re-insert at the authoritative time, carrying the slot's original
      // seq. Conservation counters are untouched — same event, new seat.
      // A duplicate of an already present authoritative item is benign:
      // the first to surface fires and releases the slot, the second
      // skims away dead. (slot->time < top.time cannot happen for a live
      // slot: every live slot always has at least one heap item at or
      // before its authoritative time, which would sit above this one.)
      heap_.pop();
      heap_.push(HeapItem{slot->time, slot->seq, top.id});
      continue;
    }
    break;
  }
}

void EventQueue::audit_no_orphans() const {
  // The heap always holds a superset of the live handlers (cancellation
  // releases the slot and leaves the heap item to be skimmed). After a
  // skim, an empty heap with live handlers remaining means those handlers
  // can never fire — their captures would be leaked silently.
  HYBRIDMR_AUDIT_CHECK(
      !heap_.empty() || live_ == 0, "sim.event_queue", "no_orphaned_handlers",
      -1, {{"live_handlers", audit::num(static_cast<double>(live_))}});
}

std::optional<SimTime> EventQueue::next_time() {
  skim();
  audit_no_orphans();
  if (heap_.empty()) return std::nullopt;
  return heap_.top().time;
}

std::optional<EventQueue::Entry> EventQueue::pop() {
  skim();
  audit_no_orphans();
  if (heap_.empty()) return std::nullopt;
  const HeapItem item = heap_.top();
  heap_.pop();
  const std::uint32_t index = slot_index(item.id);
  Entry entry{item.time, EventId{item.id}, std::move(slots_[index].fn)};
  release(index);
  return entry;
}

std::size_t EventQueue::clear() {
  const std::size_t dropped = live_;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    // Releasing (rather than dropping) every slot keeps generations
    // monotonic, so ids issued before clear() can never alias events
    // pushed afterwards — the queue stays usable.
    if (slots_[i].live) release(i);
  }
  while (!heap_.empty()) heap_.pop();
  total_cancelled_ += dropped;
  return dropped;
}

}  // namespace hybridmr::sim
