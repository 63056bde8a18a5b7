// The paper's six MapReduce benchmarks (§IV) as calibrated JobSpecs.
//
//   Twitter  - ranks users over a 25 GB twitter graph (Memory + I/O bound)
//   Wcount   - word frequencies over 20 GB of text    (Memory + I/O bound)
//   PiEst    - Monte-Carlo Pi over 10 M points        (CPU bound)
//   DistGrep - regex search over 20 GB of text        (I/O bound)
//   Sort     - sorts 20 GB of text                    (I/O bound)
//   Kmeans   - clusters 10 GB of numeric data         (CPU bound)
//
// Only the resource mix matters to a scheduler; the bytes are synthetic.
#pragma once

#include <string>
#include <vector>

#include "mapred/job_spec.h"

namespace hybridmr::workload {

mapred::JobSpec twitter();
mapred::JobSpec wcount();
mapred::JobSpec pi_est();
mapred::JobSpec dist_grep();
mapred::JobSpec sort_job();
mapred::JobSpec kmeans();

/// The six benchmarks in the paper's presentation order.
std::vector<mapred::JobSpec> all_benchmarks();

/// One Fig. 8-class heterogeneous wave, in submission order: an I/O-bound
/// Sort (2 GB), an I/O-bound DistGrep (4 GB) and a memory+I/O Wcount
/// (2 GB). The scale sweep submits one wave per 8 hosts.
std::vector<mapred::JobSpec> fig8_wave();

/// Lookup by (case-insensitive) name; throws std::out_of_range if unknown.
mapred::JobSpec benchmark(const std::string& name);

}  // namespace hybridmr::workload
