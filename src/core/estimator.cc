#include "core/estimator.h"

#include <algorithm>

namespace hybridmr::core {

using cluster::ResourceKind;

std::optional<ResourceKind> TaskModel::bottleneck() const {
  ResourceKind worst = ResourceKind::kCpu;
  double worst_ratio = 1.0;
  for (int r = 0; r < cluster::kNumResources; ++r) {
    const auto kind = static_cast<ResourceKind>(r);
    const double wanted = demand[kind];
    if (wanted <= 1e-9) continue;
    const double ratio = alloc[kind] / wanted;
    if (ratio < worst_ratio - 1e-9) {
      worst_ratio = ratio;
      worst = kind;
    }
  }
  if (worst_ratio >= 0.95) return std::nullopt;
  return worst;
}

double TaskModel::interference_score(
    const cluster::Resources& node_capacity) const {
  return alloc.dominant_share(node_capacity);
}

void Estimator::observe(const mapred::TaskAttempt& attempt, double now) {
  auto [it, first] = records_.try_emplace(&attempt);
  Record& record = it->second;
  if (!first && now > record.seen) {
    record.model =
        TaskModel{attempt.current_demand(), attempt.current_allocation()};
  }
  record.seen = now;
}

const TaskModel* Estimator::model(const mapred::TaskAttempt* a) const {
  auto it = records_.find(a);
  if (it == records_.end() || !it->second.model) return nullptr;
  return &*it->second.model;
}

void Estimator::retain_only(const std::vector<mapred::TaskAttempt*>& live) {
  std::erase_if(records_, [&](const auto& kv) {
    return std::find(live.begin(), live.end(), kv.first) == live.end();
  });
}

}  // namespace hybridmr::core
