// Job specifications: the static description of a MapReduce job's resource
// behaviour, from which map/reduce task workloads are derived.
#pragma once

#include <string>

#include "sim/units.h"

namespace hybridmr::mapred {

/// Coarse resource class, as the paper categorizes its benchmarks (§IV).
enum class JobClass { kCpuBound, kIoBound, kMemoryIoBound };

const char* to_string(JobClass c);

struct JobSpec {
  std::string name;
  JobClass job_class = JobClass::kIoBound;

  double input_gb = 1.0;

  // Compute factors (cpu-seconds per MB processed).
  sim::SecondsPerMB map_cpu_s_per_mb{0.01};
  sim::SecondsPerMB reduce_cpu_s_per_mb{0.01};
  // Extra merge-sort cost per spill pass in the reduce (drives the
  // piecewise-nonlinear reduce-phase behaviour of Fig. 5(c)).
  sim::SecondsPerMB sort_cpu_s_per_mb{0.004};

  // Data-flow shape.
  double map_selectivity = 1.0;     // intermediate bytes / input bytes
  double reduce_output_ratio = 1.0; // output bytes / intermediate bytes

  // Memory footprint of one running task (JVM heap + buffers).
  sim::MegaBytes task_memory_mb{300};

  // Number of reduce tasks; 0 = one per TaskTracker.
  int num_reducers = 0;

  // Replication factor for job output (0 = the cluster default). Sort
  // benchmarks conventionally write with replication 1 (terasort).
  int output_replicas = 0;

  // Input split size override (0 = the cluster's HDFS block size).
  // Compute-shaped jobs like PiEst use tiny splits over tiny inputs.
  sim::MegaBytes split_mb{0};

  // Completion-time SLO used by the Phase I placement (0 = best effort).
  sim::Duration desired_jct_s{0};

  /// Same job, different input size (paper scales Sort from 1 to 20 GB).
  [[nodiscard]] JobSpec with_input_gb(double gb) const {
    JobSpec s = *this;
    s.input_gb = gb;
    return s;
  }

  [[nodiscard]] sim::MegaBytes input_mb() const {
    return sim::MegaBytes{input_gb * 1024.0};
  }
};

inline const char* to_string(JobClass c) {
  switch (c) {
    case JobClass::kCpuBound:
      return "cpu-bound";
    case JobClass::kIoBound:
      return "io-bound";
    case JobClass::kMemoryIoBound:
      return "mem+io-bound";
  }
  return "?";
}

}  // namespace hybridmr::mapred
