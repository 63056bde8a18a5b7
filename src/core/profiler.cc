#include "core/profiler.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "cluster/cluster.h"
#include "mapred/engine.h"
#include "mapred/scheduler.h"
#include "sim/simulation.h"
#include "stats/regression.h"
#include "storage/hdfs.h"

namespace hybridmr::core {

TrainingRunner make_simulated_runner(std::uint64_t seed,
                                     const cluster::Calibration& cal) {
  return [seed, cal](const mapred::JobSpec& spec, bool virtual_cluster,
                     int cluster_size, double data_gb) {
    sim::Simulation sim(seed + static_cast<std::uint64_t>(cluster_size) * 131 +
                        static_cast<std::uint64_t>(data_gb * 7));
    cluster::HybridCluster hc(sim, cal);
    storage::Hdfs hdfs(sim, cal);
    mapred::MapReduceEngine mr(sim, hdfs, cal,
                               std::make_unique<mapred::FairScheduler>());
    int hosts = cluster_size;
    if (virtual_cluster) {
      hosts = (cluster_size + 1) / 2;  // two VMs per host
      int made = 0;
      for (auto* host : hc.add_machines(hosts)) {
        for (auto* vm : hc.virtualize(*host, 2)) {
          if (made++ >= cluster_size) break;
          hdfs.add_datanode(*vm);
          mr.add_tracker(*vm);
        }
      }
    } else {
      for (auto* m : hc.add_machines(cluster_size)) {
        hdfs.add_datanode(*m);
        mr.add_tracker(*m);
      }
    }
    // Pin reduce parallelism to the physical host count so native/virtual
    // training runs are compared at equal logical reduce fan-out.
    mapred::JobSpec run_spec = spec.with_input_gb(data_gb);
    if (run_spec.num_reducers == 0) run_spec.num_reducers = hosts;
    mapred::Job* job = mr.submit(run_spec);
    sim.run();

    ProfileEntry entry;
    entry.job_name = spec.name;
    entry.virtual_cluster = virtual_cluster;
    entry.cluster_size = cluster_size;
    entry.data_gb = data_gb;
    entry.jct_s = job->jct();
    entry.map_s = job->map_phase_seconds();
    entry.reduce_s = job->reduce_phase_seconds();
    return entry;
  };
}

void JobProfiler::train(const mapred::JobSpec& spec, bool virtual_cluster,
                        std::span<const int> cluster_sizes,
                        std::span<const double> data_gbs) {
  for (int csize : cluster_sizes) {
    for (double dgb : data_gbs) {
      db_->add(runner_(spec, virtual_cluster, csize, dgb));
    }
  }
}

namespace {

using Estimate = JobProfiler::Estimate;

std::vector<double> column(const std::vector<ProfileEntry>& entries,
                           double ProfileEntry::*field) {
  std::vector<double> out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(e.*field);
  return out;
}

/// Linear extrapolation of each phase against data size (Fig. 5(d)).
Estimate extrapolate_data(const std::vector<ProfileEntry>& entries,
                          double data_gb) {
  Estimate est;
  est.method = Estimate::Method::kDataExtrapolation;
  std::vector<double> x;
  for (const auto& e : entries) x.push_back(e.data_gb);
  auto predict = [&](double ProfileEntry::*field) {
    const auto y = column(entries, field);
    if (auto fit = stats::LinearRegression::fit(x, y)) {
      return std::max(0.0, fit->predict(data_gb));
    }
    return stats::interpolate(x, y, data_gb);
  };
  est.map_s = predict(&ProfileEntry::map_s);
  est.reduce_s = predict(&ProfileEntry::reduce_s);
  est.jct_s = predict(&ProfileEntry::jct_s);
  return est;
}

/// Per-phase extrapolation against cluster size: inverse law for the map
/// phase (Fig. 5(a,b)), piecewise-linear for the reduce phase (Fig. 5(c)).
Estimate extrapolate_cluster(std::vector<ProfileEntry> entries,
                             int cluster_size) {
  Estimate est;
  est.method = Estimate::Method::kClusterExtrapolation;
  std::sort(entries.begin(), entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              return a.cluster_size < b.cluster_size;
            });
  std::vector<double> x;
  for (const auto& e : entries) x.push_back(e.cluster_size);
  const auto map_y = column(entries, &ProfileEntry::map_s);
  const auto red_y = column(entries, &ProfileEntry::reduce_s);

  if (auto fit = stats::InverseRegression::fit(x, map_y)) {
    est.map_s = std::max(0.0, fit->predict(cluster_size));
  } else {
    est.map_s = stats::interpolate(x, map_y, cluster_size);
  }
  if (auto fit = stats::PiecewiseLinearRegression::fit(x, red_y)) {
    est.reduce_s = std::max(0.0, fit->predict(cluster_size));
  } else {
    est.reduce_s = stats::interpolate(x, red_y, cluster_size);
  }
  est.jct_s = est.map_s + est.reduce_s;
  return est;
}

}  // namespace

Estimate JobProfiler::estimate(const mapred::JobSpec& spec,
                               bool virtual_cluster, int cluster_size) const {
  const double data_gb = spec.input_gb;

  // Algorithm 1 line 2-3: exact match.
  if (auto exact =
          db_->lookup(spec.name, virtual_cluster, cluster_size, data_gb)) {
    Estimate est;
    est.method = Estimate::Method::kExact;
    est.jct_s = exact->jct_s;
    est.map_s = exact->map_s;
    est.reduce_s = exact->reduce_s;
    return est;
  }

  // Line 5-6: same cluster size, different data sizes -> linear in data.
  const auto same_cluster =
      db_->with_cluster_size(spec.name, virtual_cluster, cluster_size);
  std::set<double> data_points;
  for (const auto& e : same_cluster) data_points.insert(e.data_gb);
  if (data_points.size() >= 2) {
    return extrapolate_data(same_cluster, data_gb);
  }

  // Line 7-8: same data size, different cluster sizes -> per-phase fit.
  const auto same_data =
      db_->with_data_size(spec.name, virtual_cluster, data_gb);
  std::set<int> cluster_points;
  for (const auto& e : same_data) cluster_points.insert(e.cluster_size);
  if (cluster_points.size() >= 2) {
    return extrapolate_cluster(same_data, cluster_size);
  }

  // Fallback: nearest profile, scaled linearly in data and inversely in
  // cluster size (sub-linearly for the reduce phase).
  const auto all = db_->for_job(spec.name, virtual_cluster);
  if (all.empty()) return {};
  const ProfileEntry* nearest = &all[0];
  double best = 1e300;
  for (const auto& e : all) {
    const double d = std::abs(std::log(std::max(1e-6, e.data_gb / data_gb))) +
                     std::abs(std::log(static_cast<double>(e.cluster_size) /
                                       cluster_size));
    if (d < best) {
      best = d;
      nearest = &e;
    }
  }
  Estimate est;
  est.method = Estimate::Method::kScaled;
  const double data_ratio = data_gb / std::max(1e-6, nearest->data_gb);
  const double cluster_ratio =
      static_cast<double>(nearest->cluster_size) / cluster_size;
  est.map_s = nearest->map_s * data_ratio * cluster_ratio;
  est.reduce_s =
      nearest->reduce_s * data_ratio * std::sqrt(cluster_ratio);
  est.jct_s = est.map_s + est.reduce_s;
  return est;
}

}  // namespace hybridmr::core
