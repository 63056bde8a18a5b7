#include "mapred/task.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "audit/invariants.h"
#include "mapred/engine.h"
#include "mapred/job.h"
#include "mapred/tracker.h"

namespace hybridmr::mapred {

using cluster::Resources;
using cluster::Workload;

namespace {
/// Hadoop's mapreduce.reduce.shuffle.parallelcopies default-ish bound.
constexpr int kShuffleParallelism = 4;
}  // namespace

TaskAttempt* Task::running_attempt() const {
  for (const auto& a : attempts_) {
    if (a->running()) return a.get();
  }
  return nullptr;
}

int Task::running_count() const {
  int n = 0;
  for (const auto& a : attempts_) {
    if (a->running()) ++n;
  }
  return n;
}

void Task::sync_pending(MapReduceEngine& engine) {
  const bool now_pending = !completed_ && running_count() == 0;
  if (now_pending == pending_) return;
  pending_ = now_pending;
  Bitmap& pending = job_->pending_[type_ == TaskType::kMap ? 0 : 1];
  const auto bit = static_cast<std::uint32_t>(index_);
  if (now_pending) {
    pending.insert(bit);
  } else {
    pending.erase(bit);
  }
  engine.add_schedulable(*job_, type_, now_pending ? 1 : -1);
}

// ------------------------------------------------------------- attempt ----

TaskAttempt::TaskAttempt(Task& task, TaskTracker& tracker,
                         MapReduceEngine& engine)
    : task_(&task), tracker_(&tracker), engine_(&engine) {}

TaskAttempt::~TaskAttempt() { teardown(); }

cluster::ExecutionSite& TaskAttempt::site() const { return tracker_->site(); }

std::string TaskAttempt::label() const {
  const Job& job = task_->job();
  return job.spec().name + "-j" + std::to_string(job.id()) +
         (task_->type() == TaskType::kMap ? "-m" : "-r") +
         std::to_string(task_->index());
}

void TaskAttempt::start() {
  started_ = true;
  task_->sync_pending(*engine_);
  started_at_ = engine_->sim().now();
  build_phases();
  next_phase();
}

void TaskAttempt::build_phases() {
  const JobSpec& spec = task_->job().spec();
  const auto& cal = engine_->calibration();
  phases_.clear();
  if (task_->type() == TaskType::kMap) {
    const double mb = engine_->hdfs()
                          .block_size_mb(task_->job().input_file(),
                                         task_->index())
                          .value();
    // Fetch the first split buffer through HDFS (captures locality), then
    // stream the rest pipelined with record processing, like a real map.
    const sim::MegaBytes head_mb{0.15 * mb};
    const sim::MegaBytes body_mb = sim::MegaBytes{mb} - head_mb;
    phases_.push_back({Phase::Kind::kRead, head_mb.value(), {}});
    const double cpu_s = (sim::MegaBytes{mb} * spec.map_cpu_s_per_mb).value();
    const double stream_s = std::max(
        {0.05, cpu_s, (body_mb / cal.hdfs_stream_disk_mbps).value()});
    Phase stream{Phase::Kind::kStream, stream_s, {}};
    stream.demand.cpu = std::min(1.0, cpu_s / stream_s);
    stream.demand.disk = body_mb.value() / stream_s;
    stream.demand.memory = spec.task_memory_mb.value();
    phases_.push_back(stream);
    const double out = mb * spec.map_selectivity;
    if (out > 0.01) phases_.push_back({Phase::Kind::kLocalWrite, out, {}});
  } else {
    const double mb = task_->job().shuffle_mb_per_reducer().value();
    if (mb > 0.01) phases_.push_back({Phase::Kind::kShuffle, mb, {}});
    // Merge-sort passes grow with the spill count: the reduce-phase
    // nonlinearity of Fig. 5(c).
    const double spills = std::max(
        1.0,
        std::log2(1.0 + mb / std::max(1.0, spec.task_memory_mb.value())));
    const double cpu =
        (sim::MegaBytes{mb} *
         (spec.reduce_cpu_s_per_mb + spec.sort_cpu_s_per_mb * spills))
            .value();
    phases_.push_back({Phase::Kind::kCompute, std::max(0.05, cpu), {}});
    const double out = mb * spec.reduce_output_ratio;
    if (out > 0.01) phases_.push_back({Phase::Kind::kWrite, out, {}});
  }

  // Phase weights = estimated duration shares (used only for progress).
  weights_.clear();
  double total = 0;
  for (const auto& p : phases_) {
    double est = 0;
    switch (p.kind) {
      case Phase::Kind::kRead:
      case Phase::Kind::kLocalWrite:
        est = (sim::MegaBytes{p.amount} / cal.hdfs_stream_disk_mbps).value();
        break;
      case Phase::Kind::kCompute:
      case Phase::Kind::kStream:
        est = p.amount;
        break;
      case Phase::Kind::kShuffle:
        est = (sim::MegaBytes{p.amount} / cal.hdfs_stream_net_mbps).value();
        break;
      case Phase::Kind::kWrite:
        est = 2 * (sim::MegaBytes{p.amount} /
                   cal.hdfs_stream_disk_mbps).value();  // replication
        break;
    }
    weights_.push_back(est);
    total += est;
  }
  for (auto& w : weights_) {
    w = total > 0 ? w / total : 1.0 / static_cast<double>(phases_.size());
  }
}

void TaskAttempt::next_phase() {
  ++phase_idx_;
  flows_.clear();
  flow_done_mb_ = sim::MegaBytes{0};
  phase_flow_total_ = 0;
  if (phase_idx_ >= static_cast<int>(phases_.size())) {
    finished_ = true;
    task_->sync_pending(*engine_);
    tracker_->release(this);
    engine_->attempt_finished(*this);
    return;
  }

  const Phase& phase = phases_[static_cast<std::size_t>(phase_idx_)];
  const JobSpec& spec = task_->job().spec();
  const auto& cal = engine_->calibration();

  switch (phase.kind) {
    case Phase::Kind::kRead: {
      phase_flow_total_ = phase.amount;
      const sim::MegaBytes block_mb = engine_->hdfs().block_size_mb(
          task_->job().input_file(), task_->index());
      auto handle = engine_->hdfs().read_block(
          task_->job().input_file(), task_->index(), site(),
          [this, mb = sim::MegaBytes{phase.amount}]() { flow_completed(mb); },
          block_mb > sim::MegaBytes{0} ? phase.amount / block_mb.value()
                                       : 1.0);
      if (paused_) handle.set_paused(true);
      handle.set_caps(caps_);
      flows_.push_back({handle, sim::MegaBytes{phase.amount}});
      break;
    }
    case Phase::Kind::kStream:
    case Phase::Kind::kCompute: {
      Resources d = phase.demand;
      if (phase.kind == Phase::Kind::kCompute) {
        d.cpu = 1.0;
        d.memory = spec.task_memory_mb.value();
      }
      workload_ = std::make_shared<Workload>(d, sim::Duration{phase.amount});
      workload_->set_caps(caps_);
      workload_->set_paused(paused_);
      workload_->on_complete = [this]() {
        workload_.reset();
        phase_finished();
      };
      site().add(workload_);
      break;
    }
    case Phase::Kind::kLocalWrite: {
      Resources d;
      d.disk = cal.hdfs_stream_disk_mbps.value();
      workload_ = std::make_shared<Workload>(
          d, sim::MegaBytes{phase.amount} / cal.hdfs_stream_disk_mbps);
      workload_->set_caps(caps_);
      workload_->set_paused(paused_);
      workload_->on_complete = [this]() {
        workload_.reset();
        phase_finished();
      };
      site().add(workload_);
      break;
    }
    case Phase::Kind::kShuffle:
      begin_shuffle(sim::MegaBytes{phase.amount});
      break;
    case Phase::Kind::kWrite: {
      phase_flow_total_ = phase.amount;
      auto handle = engine_->hdfs().write(
          site(), sim::MegaBytes{phase.amount},
          [this, mb = sim::MegaBytes{phase.amount}]() { flow_completed(mb); },
          spec.output_replicas);
      if (paused_) handle.set_paused(true);
      handle.set_caps(caps_);
      flows_.push_back({handle, sim::MegaBytes{phase.amount}});
      break;
    }
  }
}

void TaskAttempt::begin_shuffle(sim::MegaBytes total_mb) {
  phase_flow_total_ = total_mb.value();

  // Group this reducer's share of each map output by source site, in
  // first-map order (pointer-keyed ordering would be nondeterministic; the
  // unordered map is a lookup index only — the plan itself carries the
  // deterministic order).
  const auto& maps = task_->job().maps();
  const double per_map =
      maps.empty() ? 0 : total_mb.value() / static_cast<double>(maps.size());
  std::vector<std::pair<cluster::ExecutionSite*, double>> plan;
  std::unordered_map<const cluster::ExecutionSite*, std::size_t> slot_of;
  slot_of.reserve(maps.size());
  for (const auto& m : maps) {
    cluster::ExecutionSite* src = m->output_site();
    if (src == nullptr) src = &site();  // defensive: treat as local
    const auto [it, inserted] = slot_of.emplace(src, plan.size());
    if (inserted) {
      plan.emplace_back(src, per_map);
    } else {
      plan[it->second].second += per_map;
    }
  }
#if defined(HYBRIDMR_AUDIT_ENABLED)
  // Conservation through the shuffle: partitioning the reducer's input by
  // source site must neither create nor lose bytes.
  sim::MegaBytes planned_mb;
  for (const auto& [src, mb] : plan) planned_mb += sim::MegaBytes{mb};
  HYBRIDMR_AUDIT_CHECK(
      std::abs(planned_mb.value() - (maps.empty() ? 0.0 : total_mb.value())) <=
          1e-6 * std::max(1.0, total_mb.value()),
      "mapred.task", "shuffle_mb_conserved", engine_->sim().now(),
      {{"attempt", label()},
       {"total_mb", audit::num(total_mb.value())},
       {"planned_mb", audit::num(planned_mb.value())},
       {"sources", audit::num(static_cast<double>(plan.size()))}});
#endif
  if (plan.empty()) {
    phase_finished();
    return;
  }
  engine_->note_shuffle_started(*this, total_mb,
                                static_cast<int>(plan.size()));

  // Launch the whole shuffle in one wave: local and loopback sources keep
  // their individual disk-paced flows (there are O(VMs/host) of those),
  // but every remote source folds into ONE batched flow, so a reducer's
  // shuffle costs one completion event however many machines feed it —
  // event count grows with reducers, not reducers x machines.
  std::vector<std::pair<cluster::ExecutionSite*, sim::MegaBytes>> remote;
  for (const auto& [src, mb] : plan) {
    if (src != &site() && !storage::same_host(*src, site())) {
      remote.emplace_back(src, sim::MegaBytes{mb});
      continue;
    }
    auto handle = engine_->hdfs().transfer(
        *src, site(), sim::MegaBytes{mb},
        [this, mb]() { flow_completed(sim::MegaBytes{mb}); });
    if (paused_) handle.set_paused(true);
    handle.set_caps(caps_);
    flows_.push_back({handle, sim::MegaBytes{mb}, {src}});
  }
  if (remote.empty()) return;
  sim::MegaBytes remote_mb;
  for (const auto& [src, mb] : remote) remote_mb += mb;
  auto handle = engine_->hdfs().transfer_batch(
      remote, site(), [this, remote_mb]() { flow_completed(remote_mb); },
      kShuffleParallelism);
  if (paused_) handle.set_paused(true);
  handle.set_caps(caps_);
  ActiveFlow flow{handle, remote_mb};
  flow.srcs.reserve(remote.size());
  for (const auto& [src, mb] : remote) flow.srcs.push_back(src);
  flows_.push_back(std::move(flow));
}

void TaskAttempt::flow_completed(sim::MegaBytes mb) {
  flow_done_mb_ += mb;
  // Drop completed handles.
  flows_.erase(std::remove_if(flows_.begin(), flows_.end(),
                              [](const ActiveFlow& f) {
                                return !f.handle.active();
                              }),
               flows_.end());
  if (flows_.empty()) phase_finished();
}

void TaskAttempt::phase_finished() {
  if (killed_ || finished_) return;
  completed_weight_ += weights_[static_cast<std::size_t>(phase_idx_)];
  next_phase();
}

double TaskAttempt::progress() const {
  if (finished_) return 1.0;
  if (!started_ || phase_idx_ < 0 ||
      phase_idx_ >= static_cast<int>(phases_.size())) {
    return completed_weight_;
  }
  double in_phase = 0;
  if (workload_) {
    in_phase = workload_->progress();
  } else if (phase_flow_total_ > 0) {
    sim::MegaBytes moving;
    for (const auto& f : flows_) {
      moving += f.amount_mb * f.handle.progress();
    }
    in_phase =
        (flow_done_mb_ + moving) / sim::MegaBytes{phase_flow_total_};
  }
  in_phase = std::clamp(in_phase, 0.0, 1.0);
  return std::clamp(
      completed_weight_ +
          in_phase * weights_[static_cast<std::size_t>(phase_idx_)],
      0.0, 1.0);
}

double TaskAttempt::elapsed() const {
  return started_ ? engine_->sim().now() - started_at_ : 0;
}

double TaskAttempt::progress_rate() const {
  const double t = elapsed();
  return t > 0 ? progress() / t : 0;
}

void TaskAttempt::set_caps(const Resources& caps) {
  caps_ = caps;
  if (workload_) workload_->set_caps(caps);
  for (auto& f : flows_) f.handle.set_caps(caps);
}

void TaskAttempt::set_paused(bool paused) {
  if (paused_ == paused) return;
  paused_ = paused;
  if (workload_) workload_->set_paused(paused);
  for (auto& f : flows_) f.handle.set_paused(paused);
}

Resources TaskAttempt::current_allocation() const {
  if (workload_) return workload_->allocated();
  Resources sum;
  for (const auto& f : flows_) {
    const cluster::Workload* p = f.handle.primary();
    // Flow primaries may run on another site (host-local serves); those do
    // not count against this tracker's node.
    if (p != nullptr && p->site() == &site()) sum += p->allocated();
  }
  return sum;
}

Resources TaskAttempt::current_demand() const {
  if (workload_) return workload_->effective_demand();
  Resources sum;
  for (const auto& f : flows_) {
    const cluster::Workload* p = f.handle.primary();
    if (p != nullptr && p->site() == &site()) sum += p->effective_demand();
  }
  return sum;
}

bool TaskAttempt::depends_on(const cluster::ExecutionSite& s) const {
  if (!running()) return false;
  if (&site() == &s) return true;
  for (const auto& f : flows_) {
    for (const cluster::ExecutionSite* src : f.srcs) {
      if (src == &s) return true;
    }
    const cluster::Workload* p = f.handle.primary();
    if (p != nullptr && p->site() == &s) return true;
  }
  return false;
}

void TaskAttempt::teardown() {
  for (auto& f : flows_) f.handle.cancel();
  flows_.clear();
  if (workload_) {
    workload_->on_complete = nullptr;
    if (workload_->site() != nullptr) {
      workload_->site()->remove(workload_.get());
    }
    workload_.reset();
  }
}

void TaskAttempt::kill() {
  if (!running()) return;
  killed_ = true;
  task_->sync_pending(*engine_);
  teardown();
  tracker_->release(this);
}

}  // namespace hybridmr::mapred
