// Fixture: capture-lifetime outside src/. A closed-loop job stream whose
// function owns itself, the shape bench_fig10a_utilization had: every
// registration copies the shared_ptr that holds the function, so a pending
// event keeps the function, and all it captures, alive past teardown.
// Keep line numbers stable or update the pinned EXPECTED findings.
#include <functional>
#include <memory>

#include "sim/simulation.h"

void run_streams(sim::Simulation& sim) {
  auto submit_stream = std::make_shared<std::function<void(int)>>();
  *submit_stream = [&sim, submit_stream](int stream) {
    if (sim.now() > 4500) return;
    // line 16: the resubmission owns the stream function
    sim.after(30, [submit_stream, stream]() { (*submit_stream)(stream); });
  };
  for (int stream = 0; stream < 3; ++stream) {
    // line 21: so does each stream's first submission
    sim.at(10.0 + 40.0 * stream,
           [submit_stream, stream]() { (*submit_stream)(stream); });
  }
  sim.run();
}

void run_streams_by_reference(sim::Simulation& sim) {
  // clean: the callbacks hold the function by reference, and it outlives
  // the run that fires them
  std::function<void(int)> submit_stream;
  submit_stream = [&](int stream) {
    if (sim.now() > 4500) return;
    sim.after(30, [&, stream]() { submit_stream(stream); });
  };
  for (int stream = 0; stream < 3; ++stream) {
    sim.at(10.0 + 40.0 * stream, [&, stream]() { submit_stream(stream); });
  }
  sim.run();
}
