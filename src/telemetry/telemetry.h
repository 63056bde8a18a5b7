// Telemetry hub: the single handle wired through the scheduler stack.
//
// One Hub per run pairs the structured trace recorder with the profiler.
// harness::TestBed owns one and hands a pointer to every subsystem
// (cluster, engine, DRM, IPS, apps, ...); a null hub simply means
// "telemetry off" — every instrumentation site guards with `if (tel_)`.
// Counts and series live with the layer that keeps them (its stats
// getters and stats::TimeSeries), not here.
#pragma once

#include "telemetry/json.h"
#include "telemetry/profiler.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

namespace hybridmr::telemetry {

struct Hub {
  TraceRecorder trace;
  // Off by default even when telemetry is on; TestBed enables it for
  // profiled runs (Options::profile / HYBRIDMR_PROFILE=1).
  Profiler profiler;
};

}  // namespace hybridmr::telemetry
