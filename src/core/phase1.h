// Phase I scheduler: initial placement of jobs between the physical and
// virtual partitions of the hybrid cluster (paper §III-A, Algorithm 2).
//
// Interactive (transactional) jobs are assigned to the virtual cluster by
// default. For batch MapReduce jobs the scheduler profiles the job on small
// native and virtual training clusters, estimates its JCT in both
// environments (Algorithm 1), and steers it:
//   - with a desired completion time (SLO): virtual-estimate >= desired
//     -> physical cluster, else virtual (Algorithm 2 lines 6-9);
//   - without an SLO: place on the virtual cluster unless the expected
//     virtualization overhead is significant (above a threshold).
#pragma once

#include <string>
#include <vector>

#include "core/profiler.h"
#include "mapred/job.h"
#include "mapred/job_spec.h"

namespace hybridmr::core {

class PhaseOneScheduler {
 public:
  /// VMs per PM in the virtual training partition. The simulated training
  /// runner always packs two VMs per host, so no other value compares at
  /// equal hardware.
  static constexpr int kVmsPerHost = 2;

  struct Config {
    /// Sizes of the two partitions of the production hybrid cluster, used
    /// as the estimation targets.
    int native_cluster_size = 24;
    int virtual_cluster_size = 48;
    /// Training-cluster shapes (paper: "a small training cluster"), in
    /// physical machines. The virtual training partition packs
    /// `kVmsPerHost` VMs onto the same number of PMs, so the native /
    /// virtual comparison is at equal hardware — the paper's testbed ratio
    /// (24 PMs vs 48 VMs on 24 PMs).
    std::vector<int> training_cluster_sizes = {2, 4};
    std::vector<double> training_data_gbs = {1.0, 2.0};
    /// Train lazily on first sight of a job (else estimation uses whatever
    /// profiles already exist).
    bool auto_train = true;
  };

  struct Decision {
    mapred::PlacementPool pool = mapred::PlacementPool::kVirtualOnly;
    /// Equal-hardware training-cluster estimates (overhead comparison).
    JobProfiler::Estimate native_estimate;
    JobProfiler::Estimate virtual_estimate;
    /// Estimate at the production virtual partition size (SLO check).
    JobProfiler::Estimate virtual_production;
    double overhead = 0;  // (virtual - native) / native, equal hardware
    std::string reason;
  };

  PhaseOneScheduler(JobProfiler& profiler, Config config)
      : profiler_(&profiler), config_(std::move(config)) {}

  /// Algorithm 2 for one batch job.
  Decision place(const mapred::JobSpec& spec);

  /// Ensures training profiles exist for this job in both environments.
  void ensure_trained(const mapred::JobSpec& spec);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] JobProfiler& profiler() { return *profiler_; }

 private:
  JobProfiler* profiler_;
  Config config_;
};

}  // namespace hybridmr::core
