// What-if engine: full-engine fork by address-space clone.
//
// A faithful fork of a warmed engine must preserve owned values and heap
// state, clone shared objects exactly once, keep back-references pointing
// at the clones, and resume every Rng stream in place. One mechanism
// satisfies all of that at byte fidelity for the single-threaded
// deterministic simulator: fork(2) (docs/WHATIF.md, "What fork(2) does").
// The child is a copy-on-write clone of the whole address space, so every
// pointer-keyed map keeps its iteration order, every type-erased handler
// closure still reaches the same objects at the same addresses, and every
// Rng stream resumes mid-sequence — properties no field-by-field deep copy
// can reproduce through std::function's type erasure. Isolation is a
// kernel guarantee: nothing the child mutates is visible to the parent.
//
// Two entry points (docs/WHATIF.md has the lifecycle diagrams):
//
//   run_isolated(scenario)  — fork at an event boundary; the child runs
//     `scenario` to completion and its returned string travels back over a
//     pipe. The capacity-planner sweeps hundreds of these from one warmed
//     simulation.
//
//   lookahead_in_event(apply, horizon, score) — fork from *inside* a
//     running event handler (the IPS epoch). In the child the candidate
//     action is applied, a score event is scheduled `horizon` seconds out,
//     and the caller unwinds back into the event loop; when the horizon
//     event fires the child reports its score through the pipe and exits.
//     In the parent (virtual clock frozen at the cut) the call blocks
//     until the score arrives. The pending horizon event keeps the child's
//     queue non-empty, so the lookahead cannot drain early — but the
//     horizon must stay inside the driver's run_until window, or the
//     child's loop returns to driver code it must never execute (an
//     atexit backstop turns that escape into a loud non-zero exit).
//
// Children never fork again: in_lookahead() is true in the child and
// callers (the model-predictive IPS) fall back to their closed-form
// policy, which also keeps lookahead cost bounded. A child that aborts
// (armed audit invariant, crash) is reported as ok=false, never
// propagated: a what-if that dies is an answer, not an error.
#pragma once

#include <functional>
#include <string>

#include "sim/simulation.h"

namespace hybridmr::whatif {

/// Outcome of one forked scenario. `ok` is false when the fork itself
/// failed or the child exited abnormally (audit abort, crash, escape from
/// the lookahead horizon) — `payload` is then whatever arrived before it
/// died, usually empty.
struct ForkResult {
  bool ok = false;
  std::string payload;
};

class WhatIfEngine {
 public:
  struct Options {
    /// Raise the child's log threshold to silence lookahead chatter (the
    /// parent's sink would interleave both processes' lines).
    bool silence_child_logs = true;
  };

  struct Stats {
    int forks = 0;           ///< total fork(2) calls that succeeded
    int child_failures = 0;  ///< children that exited abnormally
  };

  explicit WhatIfEngine(sim::Simulation& sim)
      : WhatIfEngine(sim, Options{}) {}
  WhatIfEngine(sim::Simulation& sim, Options options)
      : sim_(sim), options_(options) {}

  WhatIfEngine(const WhatIfEngine&) = delete;
  WhatIfEngine& operator=(const WhatIfEngine&) = delete;

  /// True in a forked child (scenario or lookahead). Nested forks are
  /// refused — callers fall back to non-predictive policies.
  [[nodiscard]] bool in_lookahead() const { return in_lookahead_; }

  /// Forks the whole engine at an event boundary and runs `scenario` in
  /// the child; returns its string through a pipe. Must not be called
  /// from inside run() (use lookahead_in_event there) or from a child.
  ForkResult run_isolated(const std::function<std::string()>& scenario);

  /// Result of a lookahead fork. Exactly one of the two shapes comes back:
  /// in the parent `is_child` is false and ok/payload carry the child's
  /// report; in the child `is_child` is true and the caller must unwind
  /// out of the current event handler immediately (the scheduled horizon
  /// event finishes the lookahead and exits the process).
  struct Lookahead {
    bool is_child = false;
    bool ok = false;
    std::string payload;
  };

  /// Forks from inside a running event handler. The child applies `apply`
  /// and runs `horizon` seconds of simulated time further, then reports
  /// score() through the pipe. Returns the no-fork parent shape
  /// (ok=false) when forking is unavailable (already in a child, fork
  /// failure) — callers treat that as "no prediction".
  Lookahead lookahead_in_event(const std::function<void()>& apply,
                               sim::Duration horizon,
                               const std::function<std::string()>& score);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Parent half after a successful fork: reads the pipe to EOF *before*
  /// reaping (a child writing more than the pipe buffer would otherwise
  /// deadlock against waitpid), then collects the exit status.
  ForkResult collect(int read_fd, int pid);
  /// Child half: closes the read end, marks in_lookahead(), arms the
  /// escape backstop and silences logging per Options.
  void enter_child(int read_fd);

  sim::Simulation& sim_;
  Options options_;
  Stats stats_;
  bool in_lookahead_ = false;
};

}  // namespace hybridmr::whatif
