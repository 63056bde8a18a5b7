// Declarative fault schedules for the FaultInjector.
//
// A schedule mixes one-shot faults pinned to simulated instants with a
// Poisson-rate stream of task failures, all drawn from the schedule's own
// seed so a chaos run is reproducible bit-for-bit and fault draws never
// perturb the simulation's main RNG stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/units.h"

namespace hybridmr::faults {

/// One scheduled fault.
struct FaultSpec {
  enum class Kind {
    kMachineCrash,    // host dies: VMs, trackers and replicas go with it
    kTaskFailure,     // one running attempt fails (counts against retries)
    kTrackerTimeout,  // heartbeat loss: blacklist without killing the host
  };

  Kind kind = Kind::kTaskFailure;
  /// Simulated time the fault fires.
  double at = 0;
  /// What to hit. Machine name for kMachineCrash, attempt-label prefix
  /// (e.g. "sort-j0-m") for kTaskFailure, site name for kTrackerTimeout.
  /// Empty = seeded random pick among valid victims at fire time.
  std::string target;
  /// Recovery delay after the fault (machine reboot / tracker heartbeat
  /// return). Negative = never recovers.
  sim::Duration recover_after{-1.0};
};

/// A full fault plan for one run.
struct FaultSchedule {
  std::vector<FaultSpec> one_shot;

  /// Poisson rate (faults/simulated second) of random task-attempt
  /// failures; 0 disables the stream.
  double task_failure_rate = 0;
  /// The failure stream stops scheduling past this simulated time. <= 0
  /// means no horizon — beware that an ever-rearming stream keeps the
  /// event queue non-empty, so run_jobs()-style "drain the queue" loops
  /// never exit.
  double rate_horizon_s = 0;

  /// Seed for the injector's private RNG (victim picks, inter-arrivals).
  std::uint64_t seed = 0x5eedf417;

  [[nodiscard]] bool empty() const {
    return one_shot.empty() && task_failure_rate <= 0;
  }
};

}  // namespace hybridmr::faults
