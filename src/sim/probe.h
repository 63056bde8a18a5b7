// DispatchProbe: the kernel-side hook the profiler attaches through.
//
// The sim layer sits at the bottom of the layering DAG, so it cannot depend
// on telemetry types. Instead the Simulation accepts an abstract probe and
// invokes it around every event dispatch; telemetry::Profiler implements
// this interface and translates the callbacks into wall-time spans, work
// counters and the heartbeat/stall watchdog. A null probe (the default)
// costs one pointer compare per event.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/event_queue.h"

namespace hybridmr::sim {

class DispatchProbe {
 public:
  virtual ~DispatchProbe() = default;

  /// Called just before the event is popped, so the pop's heap work falls
  /// inside the event's span. `now` is the event's timestamp (the clock
  /// advances after the pop); `queue_depth` is the number of live events
  /// that remain once it is popped.
  virtual void on_event_begin(SimTime now, std::size_t queue_depth) = 0;

  /// Called after the handler returned. `fanout` is the number of events
  /// the handler scheduled (directly or transitively within its own frame).
  virtual void on_event_end(SimTime now, std::uint64_t fanout,
                            std::size_t queue_depth) = 0;
};

}  // namespace hybridmr::sim
