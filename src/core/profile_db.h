// Profile database for Phase I (paper §III-A1, Algorithm 1).
//
// Stores historic job completion times — end-to-end plus separate map and
// reduce phase times — keyed by (job, environment, cluster size, data size).
#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <vector>

namespace hybridmr::core {

struct ProfileEntry {
  std::string job_name;
  bool virtual_cluster = false;  // profiled on VMs or on native nodes
  int cluster_size = 0;          // number of Hadoop nodes
  double data_gb = 0;
  double jct_s = 0;
  double map_s = 0;
  double reduce_s = 0;
};

class ProfileDatabase {
 public:
  void add(ProfileEntry entry) { entries_.push_back(std::move(entry)); }

  // sim-lint: allow(unused-api) core_test, core_deep_test: entries recorded
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Exact match (cluster size equal, data size within 2%).
  [[nodiscard]] std::optional<ProfileEntry> lookup(
      const std::string& job_name, bool virtual_cluster, int cluster_size,
      double data_gb) const;

  /// All entries for one (job, environment).
  [[nodiscard]] std::vector<ProfileEntry> for_job(
      const std::string& job_name, bool virtual_cluster) const;

  /// Entries for one (job, environment) at a fixed cluster size.
  [[nodiscard]] std::vector<ProfileEntry> with_cluster_size(
      const std::string& job_name, bool virtual_cluster,
      int cluster_size) const;

  /// Entries for one (job, environment) at a fixed data size (within 2%).
  [[nodiscard]] std::vector<ProfileEntry> with_data_size(
      const std::string& job_name, bool virtual_cluster,
      double data_gb) const;

 private:
  static bool data_close(double a, double b) {
    const double hi = a > b ? a : b;
    return hi <= 0 || std::abs(a - b) / hi < 0.02;
  }
  std::vector<ProfileEntry> entries_;
};

}  // namespace hybridmr::core
