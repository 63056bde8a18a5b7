#include "core/phase1.h"

#include <algorithm>

namespace hybridmr::core {

namespace {

/// Virtualization overhead (relative JCT increase) considered
/// "significant" when the job carries no explicit SLO. Calibrated to the
/// unloaded training cluster, where overheads are smaller than on a busy
/// production cluster (see EXPERIMENTS.md).
constexpr double kOverheadThreshold = 0.065;

}  // namespace

void PhaseOneScheduler::ensure_trained(const mapred::JobSpec& spec) {
  // Native training partitions use the listed PM counts; virtual ones pack
  // vms_per_host VMs per PM so the comparison is at equal hardware.
  if (profiler_->database().for_job(spec.name, false).empty()) {
    profiler_->train(spec, false, config_.training_cluster_sizes,
                     config_.training_data_gbs);
  }
  if (profiler_->database().for_job(spec.name, true).empty()) {
    std::vector<int> vm_sizes;
    vm_sizes.reserve(config_.training_cluster_sizes.size());
    for (int c : config_.training_cluster_sizes) {
      vm_sizes.push_back(c * config_.vms_per_host);
    }
    profiler_->train(spec, true, vm_sizes, config_.training_data_gbs);
  }
}

PhaseOneScheduler::Decision PhaseOneScheduler::place(
    const mapred::JobSpec& spec) {
  if (config_.auto_train) ensure_trained(spec);

  Decision d;
  // Equal-hardware comparison at the largest training size: c PMs native
  // vs c*vms_per_host VMs (on c PMs) virtual. Estimation at a trained
  // cluster size only extrapolates over data size, which is reliably
  // linear (Fig. 5(d)).
  const int c_train = config_.training_cluster_sizes.empty()
                          ? 2
                          : *std::max_element(
                                config_.training_cluster_sizes.begin(),
                                config_.training_cluster_sizes.end());
  d.native_estimate =
      profiler_->estimate(spec, /*virtual_cluster=*/false, c_train);
  d.virtual_estimate = profiler_->estimate(
      spec, /*virtual_cluster=*/true, c_train * config_.vms_per_host);
  d.virtual_production = profiler_->estimate(
      spec, /*virtual_cluster=*/true, config_.virtual_cluster_size);

  if (!d.virtual_estimate.valid() || !d.native_estimate.valid()) {
    // No profile data: be conservative, use the virtual cluster (spare
    // capacity) — the run itself will populate the database.
    d.pool = mapred::PlacementPool::kVirtualOnly;
    d.reason = "no profiles; defaulting to virtual";
    return d;
  }

  if (d.native_estimate.jct_s > 0) {
    d.overhead =
        (d.virtual_estimate.jct_s - d.native_estimate.jct_s) /
        d.native_estimate.jct_s;
  }

  // Algorithm 2, lines 6-9: jobs whose virtual-cluster estimate misses the
  // desired completion time go to the physical cluster.
  if (spec.desired_jct_s > sim::Duration{0}) {
    const double production_estimate = d.virtual_production.valid()
                                           ? d.virtual_production.jct_s
                                           : d.virtual_estimate.jct_s;
    if (sim::Duration{production_estimate} >= spec.desired_jct_s) {
      d.pool = mapred::PlacementPool::kNativeOnly;
      d.reason = "virtual estimate misses desired JCT";
    } else {
      d.pool = mapred::PlacementPool::kVirtualOnly;
      d.reason = "virtual estimate meets desired JCT";
    }
    return d;
  }

  // No SLO: place on virtual unless the virtualization overhead is
  // significant (paper §III-A: "if the overhead is not significant, the
  // job is selected for deployment on the virtual cluster").
  if (d.overhead > kOverheadThreshold) {
    d.pool = mapred::PlacementPool::kNativeOnly;
    d.reason = "significant virtualization overhead";
  } else {
    d.pool = mapred::PlacementPool::kVirtualOnly;
    d.reason = "virtualization overhead acceptable";
  }
  return d;
}

}  // namespace hybridmr::core
