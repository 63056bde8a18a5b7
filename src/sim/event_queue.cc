#include "sim/event_queue.h"

#include <utility>

#include "audit/invariants.h"

namespace hybridmr::sim {

std::uint32_t EventQueue::live_pos(std::uint64_t id) const {
  if (id == 0) return kNotQueued;
  const std::uint32_t index = slot_index(id);
  if (index >= seats_.size()) return kNotQueued;
  const Seat& seat = seats_[index];
  return seat.gen == generation(id) ? seat.pos : kNotQueued;
}

void EventQueue::sift_up(std::uint32_t pos, const Item& item) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!before(item, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, item);
}

void EventQueue::sift_down(std::uint32_t pos, const Item& item) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::uint32_t end = first + kArity < n ? first + kArity : n;
    std::uint32_t least = first;
    for (std::uint32_t child = first + 1; child < end; ++child) {
      if (before(heap_[child], heap_[least])) least = child;
    }
    if (!before(heap_[least], item)) break;
    place(pos, heap_[least]);
    pos = least;
  }
  place(pos, item);
}

std::uint32_t EventQueue::erase_at(std::uint32_t pos) {
  const Item last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return kNotQueued;
  if (pos > 0 && before(last, heap_[(pos - 1) / kArity])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
  return last.slot;
}

void EventQueue::release(std::uint32_t index) {
  handlers_[index] = nullptr;  // destroy the handler (and its captures) now
  Seat& seat = seats_[index];
  seat.pos = kNotQueued;
  ++seat.gen;  // invalidate every outstanding id for this slot
  free_slots_.push_back(index);
  --live_;
}

void EventQueue::audit_heap([[maybe_unused]] std::uint32_t index) const {
  // A heap item beyond the live count is a stale or duplicate seat; a
  // seat that points at someone else's item means a sift moved an item
  // without recording where it went, and a later cancel or defer would
  // then rewrite the wrong event.
  HYBRIDMR_AUDIT_CHECK(
      heap_.size() == live_ &&
          (index == kNotQueued || (seats_[index].pos < heap_.size() &&
                                   heap_[seats_[index].pos].slot == index)),
      "sim.event_queue", "heap_matches_live", -1,
      {{"heap_items", audit::num(static_cast<double>(heap_.size()))},
       {"live", audit::num(static_cast<double>(live_))},
       {"slot", audit::num(index == kNotQueued ? -1.0 : index)}});
}

EventId EventQueue::push(SimTime time, std::function<void()> fn) {
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(seats_.size());
    seats_.emplace_back();
    handlers_.emplace_back();
  }
  handlers_[index] = std::move(fn);
  heap_.emplace_back();
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1),
          Item{time, next_seq_++, index});
  ++live_;
  ++total_pushed_;
  if (live_ > max_size_) max_size_ = live_;
  audit_heap(index);
  return EventId{make_id(index, seats_[index].gen)};
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t pos = live_pos(id.value);
  if (pos == kNotQueued) return false;
  audit_heap(slot_index(id.value));
  const std::uint32_t moved = erase_at(pos);
  release(slot_index(id.value));
  ++total_cancelled_;
  audit_heap(moved);
  return true;
}

bool EventQueue::defer(EventId id, SimTime time) {
  const std::uint32_t pos = live_pos(id.value);
  if (pos == kNotQueued) return false;
  // The item keeps its ORIGINAL push seq: rescheduling never consumes a
  // tie-break number, so same-time FIFO order is anchored to creation
  // order and is invariant under how many times — or in which coalescing
  // regime — an event was rescheduled on the way there. (Consuming a
  // fresh seq here would make tie order depend on the realloc drain
  // policy; see the realloc determinism tests.)
  audit_heap(slot_index(id.value));
  Item item = heap_[pos];
  const bool earlier = time < item.time;
  item.time = time;
  if (earlier) {
    sift_up(pos, item);
  } else {
    sift_down(pos, item);
  }
  ++total_deferred_;
  audit_heap(item.slot);
  return true;
}

std::optional<SimTime> EventQueue::next_time() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front().time;
}

std::optional<EventQueue::Entry> EventQueue::pop() {
  if (heap_.empty()) return std::nullopt;
  const Item top = heap_.front();
  audit_heap(top.slot);
  const std::uint32_t moved = erase_at(0);
  Entry entry{top.time, EventId{make_id(top.slot, seats_[top.slot].gen)},
              std::move(handlers_[top.slot])};
  release(top.slot);
  audit_heap(moved);
  return entry;
}

std::size_t EventQueue::clear() {
  const std::size_t dropped = live_;
  for (std::uint32_t i = 0; i < seats_.size(); ++i) {
    // Releasing (rather than dropping) every slot keeps generations
    // monotonic, so ids issued before clear() can never alias events
    // pushed afterwards — the queue stays usable.
    if (seats_[i].pos != kNotQueued) release(i);
  }
  heap_.clear();
  total_cancelled_ += dropped;
  audit_heap(kNotQueued);
  return dropped;
}

}  // namespace hybridmr::sim
