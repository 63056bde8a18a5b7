#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "cluster/calibration.h"
#include "cluster/machine.h"
#include "stats/regression.h"

namespace hybridmr::core {

using cluster::ResourceKind;
using cluster::Resources;

void TaskModel::add(const TaskSample& sample) { samples_.push_back(sample); }

namespace {

/// Analytic fallback: the proportional-share speed model.
double analytic_rate(const Resources& alloc, const Resources& demand,
                     double base_rate) {
  double factor = 1.0;
  if (demand.cpu > 0) factor = std::min(factor, alloc.cpu / demand.cpu);
  if (demand.disk > 0) factor = std::min(factor, alloc.disk / demand.disk);
  if (demand.net > 0) factor = std::min(factor, alloc.net / demand.net);
  if (demand.memory > 0) {
    factor *= cluster::memory_pressure_factor(
        alloc.memory / demand.memory, cluster::Calibration::standard());
  }
  return base_rate * factor;
}

}  // namespace

double TaskModel::predict_rate(const Resources& alloc,
                               const Resources& demand) const {
  if (samples_.empty()) return 0;

  // Anchor: the full-allocation rate implied by each sample (observed rate
  // divided by that sample's starvation factor); the best such estimate
  // bounds the regressions and feeds the analytic fallback.
  double base = 0;
  for (const auto& s : samples_) {
    const double factor = analytic_rate(s.alloc, s.demand, 1.0);
    if (factor > 1e-9) base = std::max(base, s.rate / factor);
  }

  if (samples_.size() < 3) return analytic_rate(alloc, demand, base);

  // Fit the paper's per-resource model forms over the history and predict
  // multiplicatively relative to the anchor allocation.
  std::vector<double> cpu_x, mem_x, io_x, rate_y;
  for (const auto& s : samples_) {
    cpu_x.push_back(s.alloc.cpu);
    mem_x.push_back(s.demand.memory > 0 ? s.alloc.memory / s.demand.memory
                                        : 1.0);
    io_x.push_back(s.alloc.disk + s.alloc.net);
    rate_y.push_back(std::max(1e-6, s.rate));
  }

  double predicted = -1;
  if (demand.cpu > 0) {
    if (auto fit = stats::LinearRegression::fit(cpu_x, rate_y);
        fit && fit->r_squared() > 0.5) {
      predicted = std::max(predicted, fit->predict(alloc.cpu));
    }
  }
  if (demand.disk + demand.net > 0) {
    if (auto fit = stats::ExponentialRegression::fit(io_x, rate_y);
        fit && fit->r_squared() > 0.5) {
      predicted = std::max(predicted, fit->predict(alloc.disk + alloc.net));
    }
  }
  if (demand.memory > 0) {
    if (auto fit = stats::PiecewiseLinearRegression::fit(mem_x, rate_y);
        fit && fit->r_squared() > 0.5) {
      const double ratio =
          demand.memory > 0 ? alloc.memory / demand.memory : 1.0;
      predicted = std::max(predicted, fit->predict(ratio));
    }
  }
  if (predicted < 0) return analytic_rate(alloc, demand, base);
  return std::clamp(predicted, 0.0, base * 1.5);
}

std::optional<ResourceKind> TaskModel::bottleneck() const {
  if (samples_.empty()) return std::nullopt;
  const TaskSample& s = samples_.back();
  ResourceKind worst = ResourceKind::kCpu;
  double worst_ratio = 1.0;
  for (int r = 0; r < cluster::kNumResources; ++r) {
    const auto kind = static_cast<ResourceKind>(r);
    const double demand = s.demand[kind];
    if (demand <= 1e-9) continue;
    const double ratio = s.alloc[kind] / demand;
    if (ratio < worst_ratio - 1e-9) {
      worst_ratio = ratio;
      worst = kind;
    }
  }
  if (worst_ratio >= 0.95) return std::nullopt;
  return worst;
}

Resources TaskModel::deficit() const {
  if (samples_.empty()) return {};
  const TaskSample& s = samples_.back();
  Resources d = s.demand - s.alloc;
  for (int r = 0; r < cluster::kNumResources; ++r) {
    auto kind = static_cast<ResourceKind>(r);
    if (d[kind] < 0) d[kind] = 0;
  }
  return d;
}

double TaskModel::interference_score(const Resources& node_capacity) const {
  if (samples_.empty()) return 0;
  return samples_.back().alloc.dominant_share(node_capacity);
}

void Estimator::observe(const mapred::TaskAttempt& attempt, double now) {
  const auto* key = &attempt;
  TaskSample sample;
  sample.time = now;
  sample.progress = attempt.progress();
  sample.demand = attempt.current_demand();
  sample.alloc = attempt.current_allocation();

  auto pit = last_progress_.find(key);
  auto tit = last_time_.find(key);
  if (pit != last_progress_.end() && tit != last_time_.end() &&
      now > tit->second) {
    sample.rate = (sample.progress - pit->second) / (now - tit->second);
    sample.rate = std::max(0.0, sample.rate);
    models_[key].add(sample);
  }
  last_progress_[key] = sample.progress;
  last_time_[key] = now;
}

const TaskModel* Estimator::model(const mapred::TaskAttempt* a) const {
  auto it = models_.find(a);
  return it != models_.end() ? &it->second : nullptr;
}

void Estimator::retain_only(const std::vector<mapred::TaskAttempt*>& live) {
  auto keep = [&](const mapred::TaskAttempt* a) {
    return std::find(live.begin(), live.end(), a) != live.end();
  };
  std::erase_if(models_,
                [&](const auto& kv) { return !keep(kv.first); });
  std::erase_if(last_progress_,
                [&](const auto& kv) { return !keep(kv.first); });
  std::erase_if(last_time_,
                [&](const auto& kv) { return !keep(kv.first); });
}

}  // namespace hybridmr::core
