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
// Two entry points, both batched (docs/WHATIF.md has the lifecycle):
//
//   run_isolated(scenarios)  — fork at an event boundary; each child runs
//     one scenario to completion and its returned string travels back over
//     a pipe. The capacity-planner sweeps hundreds of these from one warmed
//     simulation.
//
//   lookahead_in_event(candidates, horizon, score) — fork from *inside* a
//     running event handler (the IPS epoch). In each child one candidate
//     action is applied, a score event is scheduled `horizon` seconds out,
//     and the caller unwinds back into the event loop; when the horizon
//     event fires the child reports its score through the pipe and exits.
//     In the parent (virtual clock frozen at the cut) the call returns once
//     every candidate has reported. The pending horizon event keeps the
//     child's queue non-empty, so the lookahead cannot drain early — but
//     the horizon must stay inside the caller's run_until window, or the
//     child's loop returns to calling code it must never execute (an atexit
//     backstop turns that escape into a loud non-zero exit).
//
// A batch runs through one bounded child pool: at most
// Options::max_children children are alive at once, the parent drains
// their pipes with poll(2), reaps each one at EOF and forks the next into
// the freed slot. Every child forks from the same parent state whatever
// the pool size, and results come back in input order.
//
// Children never fork again: in_lookahead() is true in the child and
// callers (the model-predictive IPS) fall back to their closed-form
// policy, which also keeps lookahead cost bounded. A child that aborts
// (armed audit invariant, crash) is reported as ok=false, never
// propagated: a what-if that dies is an answer, not an error.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace hybridmr::whatif {

/// Outcome of one forked scenario. `ok` is false when the fork itself
/// failed, the child exited abnormally (audit abort, crash, escape from
/// the lookahead horizon), or its exit status or payload could not be
/// collected — `payload` is then whatever arrived, usually empty.
struct ForkResult {
  bool ok = false;
  std::string payload;
};

class WhatIfEngine {
 public:
  struct Options {
    /// Children a batch keeps alive at once; 1 forks one at a time, 0
    /// one per CPU in this process's sched_getaffinity mask.
    int max_children = 0;
  };

  struct Stats {
    int forks = 0;           ///< total fork(2) calls that succeeded
    int child_failures = 0;  ///< children that exited abnormally
    bool operator==(const Stats&) const = default;
  };

  using Scenario = std::function<std::string()>;
  using Candidate = std::function<void()>;

  explicit WhatIfEngine(sim::Simulation& sim)
      : WhatIfEngine(sim, Options{}) {}
  WhatIfEngine(sim::Simulation& sim, Options options)
      : sim_(sim), options_(options) {}

  WhatIfEngine(const WhatIfEngine&) = delete;
  WhatIfEngine& operator=(const WhatIfEngine&) = delete;

  /// True in a forked child (scenario or lookahead). Nested forks are
  /// refused — callers fall back to non-predictive policies.
  [[nodiscard]] bool in_lookahead() const { return in_lookahead_; }

  /// Forks the whole engine at an event boundary once per scenario and
  /// runs each in its own child; returns their strings in input order.
  /// Must not be called from inside run() (use lookahead_in_event there).
  /// In a child every result is ok=false.
  std::vector<ForkResult> run_isolated(std::span<const Scenario> scenarios);
  /// One-scenario batch.
  ForkResult run_isolated(const Scenario& scenario);

  /// Result of a lookahead batch. Exactly one of the two shapes comes
  /// back: in the parent `is_child` is false and `results` holds one
  /// report per candidate, in input order; in a child `is_child` is true
  /// and the caller must unwind out of the current event handler
  /// immediately (the scheduled horizon event finishes the lookahead and
  /// exits the process).
  struct Lookahead {
    bool is_child = false;
    std::vector<ForkResult> results;
  };

  /// Forks from inside a running event handler, once per candidate. Each
  /// child applies its candidate and runs `horizon` seconds of simulated
  /// time further, then reports score() through its pipe. Candidates that
  /// could not be forked (already in a child, fork failure) come back
  /// ok=false — callers treat that as "no prediction".
  Lookahead lookahead_in_event(std::span<const Candidate> candidates,
                               sim::Duration horizon, const Scenario& score);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// This process's place in a batch, returned only in a child.
  struct Child {
    std::size_t index;  ///< which batch entry to run
    int write_fd;       ///< the pipe back to the parent
  };

  /// The child pool. In the parent: forks one child per index in
  /// [0, n), at most Options::max_children alive at once, drains their
  /// pipes, reaps them, fills `results` in input order and returns
  /// nullopt. In a child: returns its Child right after enter_child().
  std::optional<Child> fork_batch(std::size_t n,
                                  std::vector<ForkResult>& results);
  /// Child half: closes the read end, marks in_lookahead() and arms the
  /// escape backstop.
  void enter_child(int read_fd);
  /// Waits for a child whose pipe reached EOF (`read_ok`) or failed;
  /// true only for a collected clean exit with a whole payload.
  bool reap(int pid, bool read_ok);

  sim::Simulation& sim_;
  Options options_;
  Stats stats_;
  bool in_lookahead_ = false;
};

}  // namespace hybridmr::whatif
