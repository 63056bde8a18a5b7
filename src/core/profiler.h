// JobProfiler: Phase I profiling and JCT estimation (Algorithm 1).
//
// Training runs execute the job on a small representative cluster (the
// paper's "training cluster" with both physical and virtual partitions);
// here each training run is a fresh sub-simulation. Estimation follows
// Algorithm 1 exactly:
//   1. exact (cluster size, data size) match -> stored JCT
//   2. same cluster size, other data sizes   -> linear extrapolation
//      (Fig. 5(d): JCT is linear in data size)
//   3. same data size, other cluster sizes   -> per-phase extrapolation:
//      map time follows an inverse law in cluster size (Fig. 5(b)),
//      reduce time a piecewise-linear relation (Fig. 5(c))
//   4. otherwise -> nearest-profile scaling (data ratio x cluster ratio)
#pragma once

#include <functional>
#include <span>

#include "cluster/calibration.h"
#include "core/profile_db.h"
#include "mapred/job_spec.h"

namespace hybridmr::core {

/// Runs one training execution and reports the measured profile.
using TrainingRunner = std::function<ProfileEntry(
    const mapred::JobSpec& spec, bool virtual_cluster, int cluster_size,
    double data_gb)>;

/// The default runner's seed.
inline constexpr std::uint64_t kTrainingSeed = 1234;

/// The default runner: a fresh sub-simulation with `cluster_size` native
/// nodes (or VMs packed two per host), stock Hadoop configuration, on a
/// copy of `cal`.
TrainingRunner make_simulated_runner(
    std::uint64_t seed = kTrainingSeed,
    const cluster::Calibration& cal = cluster::Calibration::standard());

class JobProfiler {
 public:
  struct Estimate {
    enum class Method {
      kNone,                 // no profiles at all
      kExact,                // Algorithm 1 line 3
      kDataExtrapolation,    // Algorithm 1 line 6
      kClusterExtrapolation, // Algorithm 1 line 8
      kScaled,               // nearest-profile fallback
    };
    double jct_s = 0;
    double map_s = 0;
    double reduce_s = 0;
    Method method = Method::kNone;

    [[nodiscard]] bool valid() const { return method != Method::kNone; }
  };

  JobProfiler(ProfileDatabase& db, TrainingRunner runner)
      : db_(&db), runner_(std::move(runner)) {}

  /// Populates the database: runs the job once on each (cluster size,
  /// data size) combination and stores the runner's profile. The paper
  /// averages 3 runs of a real cluster; the simulated runner is a pure
  /// function of its inputs, so repeats would measure the same run again.
  void train(const mapred::JobSpec& spec, bool virtual_cluster,
             std::span<const int> cluster_sizes,
             std::span<const double> data_gbs);

  /// Algorithm 1: estimated JCT of `spec` on `cluster_size` nodes.
  [[nodiscard]] Estimate estimate(const mapred::JobSpec& spec,
                                  bool virtual_cluster,
                                  int cluster_size) const;

  [[nodiscard]] ProfileDatabase& database() { return *db_; }

 private:
  ProfileDatabase* db_;
  TrainingRunner runner_;
};

}  // namespace hybridmr::core
