// Shared builders for the figure-reproduction benches.
//
// Every bench binary regenerates one of the paper's tables/figures: it
// builds the corresponding testbed shape, runs the workload, and prints the
// same series the paper plots. See EXPERIMENTS.md for paper-vs-measured.
#pragma once

#include <string>
#include <vector>

#include "core/hybridmr.h"
#include "harness/table.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "workload/benchmarks.h"
#include "workload/mix.h"

namespace hybridmr::bench {

using harness::Table;
using harness::TestBed;

/// Runs `spec` once on a fresh native cluster of `nodes` PMs.
inline double native_jct(const mapred::JobSpec& spec, int nodes,
                         std::uint64_t seed = 42) {
  TestBed::Options o;
  o.seed = seed;
  TestBed bed(o);
  bed.add_native_nodes(nodes);
  return bed.run_job(spec);
}

/// Runs `spec` once on a fresh virtual cluster: `hosts` PMs each carrying
/// `vms_per_host` VMs (combined DataNode+TaskTracker per VM).
inline double virtual_jct(const mapred::JobSpec& spec, int hosts,
                          int vms_per_host, std::uint64_t seed = 42) {
  TestBed::Options o;
  o.seed = seed;
  TestBed bed(o);
  bed.add_virtual_nodes(hosts, vms_per_host);
  return bed.run_job(spec);
}

/// Scales a benchmark's input, keeping the paper's name/resource mix.
inline mapred::JobSpec sized(const mapred::JobSpec& spec, double gb) {
  return spec.with_input_gb(gb);
}

}  // namespace hybridmr::bench
