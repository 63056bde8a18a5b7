// Runtime invariant auditing (HYBRIDMR_AUDIT).
//
// The simulator's value as a reproduction rests on determinism and
// conservation correctness: a silently corrupted slot count or an
// over-committed resource share invalidates every figure derived from a
// run. This layer compiles hard checkpoints into the substrate when the
// HYBRIDMR_AUDIT CMake option is ON (which defines HYBRIDMR_AUDIT_ENABLED):
//
//   - event queue:    time never moves backwards; no orphaned handlers
//                     (a handler with no heap entry can never fire);
//   - simulation:     at() with a past target time is a hard violation
//                     instead of a counted clamp;
//   - cluster:        per-resource allocations never exceed machine
//                     capacity; equal demands get equal grants; power
//                     stays within the model's bounds;
//   - mapred:         slot conservation on every tracker; completed tasks
//                     have no running attempts; shuffle traffic is
//                     conserved when partitioned by source site;
//   - hdfs:           every block's replica list is non-empty, duplicate
//                     free, and points only at registered datanodes.
//
// A violation prints a structured dump to stderr and aborts, so CI runs
// (scripts/ci.sh audit stage) fail loudly at the first corrupted state
// rather than producing subtly wrong figures. When the option is OFF the
// checkpoints compile to nothing. See docs/CORRECTNESS.md.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace hybridmr::audit {

#if defined(HYBRIDMR_AUDIT_ENABLED)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// One key/value line of a violation dump.
using Detail = std::pair<std::string, std::string>;

/// Reports an invariant violation: structured dump to stderr, then abort.
/// Pass a negative `sim_time` when no simulated clock is in scope.
[[noreturn]] void fail(const char* component, const char* invariant,
                       double sim_time, const std::vector<Detail>& details);

/// Formats a double for a violation detail (full precision, no locale).
std::string num(double v);

}  // namespace hybridmr::audit

// Checkpoint macro: evaluates nothing when auditing is compiled out. The
// details argument is a braced initializer-list of audit::Detail pairs and
// is only constructed on failure.
#if defined(HYBRIDMR_AUDIT_ENABLED)
#define HYBRIDMR_AUDIT_CHECK(cond, component, invariant, sim_time, ...) \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::hybridmr::audit::fail((component), (invariant), (sim_time),     \
                              __VA_ARGS__);                             \
    }                                                                   \
  } while (false)
#else
#define HYBRIDMR_AUDIT_CHECK(cond, component, invariant, sim_time, ...) \
  do {                                                                  \
  } while (false)
#endif
