#include "mapred/engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "audit/invariants.h"
#include "cluster/realloc.h"
#include "telemetry/telemetry.h"

namespace hybridmr::mapred {

namespace {

/// Jobs share one timeline track in the trace; tasks go on their site's.
constexpr const char* kJobTrack = "jobs";

constexpr TaskType kTaskTypes[] = {TaskType::kMap, TaskType::kReduce};

/// Period of the speculation monitor's straggler scan.
constexpr sim::Duration kSpeculationInterval{5.0};
/// Minimum runtime before an attempt can be judged a straggler.
constexpr sim::Duration kSpeculationMinElapsed{30.0};
/// When a saturated ban set is forgiven on requeue, the most recent
/// tracker stays banned for this long before being forgiven too.
constexpr sim::Duration kRequeueBanGrace{3.0};
/// Hadoop's mapred.map.max.attempts: a task whose attempts genuinely fail
/// this many times takes its whole job down.
constexpr int kMaxAttempts = 4;

int type_index(TaskType type) { return type == TaskType::kMap ? 0 : 1; }

// A job submitted to a cluster without a TaskTracker could never run.
void require_trackers(
    const std::vector<std::unique_ptr<TaskTracker>>& trackers) {
  if (trackers.empty()) {
    throw std::invalid_argument("submit needs at least one TaskTracker");
  }
}

}  // namespace

MapReduceEngine::MapReduceEngine(sim::Simulation& sim, storage::Hdfs& hdfs,
                                 const cluster::Calibration& cal,
                                 std::unique_ptr<TaskScheduler> scheduler,
                                 Options options)
    : sim_(sim),
      hdfs_(hdfs),
      cal_(cal),
      scheduler_(scheduler ? std::move(scheduler)
                           : std::make_unique<FifoScheduler>()),
      options_(options) {
  live_.jobs_ = &jobs_;
}

TaskTracker* MapReduceEngine::add_tracker(cluster::ExecutionSite& site,
                                          int map_slots, int reduce_slots) {
  trackers_.push_back(std::make_unique<TaskTracker>(
      *this, site, map_slots >= 0 ? map_slots : cal_.map_slots_per_node,
      reduce_slots >= 0 ? reduce_slots : cal_.reduce_slots_per_node));
  TaskTracker* tr = trackers_.back().get();
  tr->index_ = static_cast<std::uint32_t>(trackers_.size() - 1);
  tracker_by_site_.emplace(&tr->site(), tr);
  if (membership_ == nullptr && site.host_machine() != nullptr) {
    membership_ = &site.host_machine()->coordinator();
  }
  tr->host_load_ = host_load_of(site);
  if (tr->host_load_ != nullptr) tr->host_load_->trackers.push_back(tr);
  update_offer(*tr);
  return tr;
}

TaskTracker* MapReduceEngine::tracker_on(
    const cluster::ExecutionSite& site) const {
  auto it = tracker_by_site_.find(&site);
  return it == tracker_by_site_.end() ? nullptr : it->second;
}

bool MapReduceEngine::remove_tracker(cluster::ExecutionSite& site) {
  auto it = std::find_if(trackers_.begin(), trackers_.end(),
                         [&](const auto& tr) { return &tr->site() == &site; });
  if (it == trackers_.end()) return false;
  if (!(*it)->running().empty()) return false;  // drain first
  // Scrub stale references: banned-tracker sets may point at this tracker.
  for (const auto& job : jobs_) {
    for (const auto& t : job->maps()) t->banned_trackers.erase(it->get());
    for (const auto& t : job->reduces()) t->banned_trackers.erase(it->get());
  }
  if (HostLoad* load = (*it)->host_load_) std::erase(load->trackers, it->get());
  trackers_.erase(it);
  rebuild_dispatch_index();  // erase shifted every index after `it`
  return true;
}

void MapReduceEngine::update_offer(TaskTracker& tracker) {
  const int partition = tracker.site().is_virtual() ? 1 : 0;
  const bool open = !tracker.blacklisted_ &&
                    (tracker.host_load_ == nullptr ||
                     !tracker.host_load_->capped());
  for (TaskType type : kTaskTypes) {
    Bitmap& offers = offers_[type_index(type)][partition];
    if (open && tracker.free_slots(type) > 0) {
      offers.insert(tracker.index_);
    } else {
      offers.erase(tracker.index_);
    }
  }
}

int MapReduceEngine::host_cap(const cluster::Machine& host) {
  return static_cast<int>(2 * host.capacity().cpu);
}

HostLoad* MapReduceEngine::host_load_of(const cluster::ExecutionSite& site) {
  const cluster::Machine* host = site.host_machine();
  if (host == nullptr) return nullptr;
  HostLoad& load = host_load_[host];
  load.host = host;
  load.cap = host_cap(*host);
  return &load;
}

void MapReduceEngine::add_host_running(const TaskTracker& tracker,
                                       int delta) {
  HostLoad* load = tracker.host_load_;
  if (load == nullptr) return;
  const bool was_capped = load->capped();
  load->running += delta;
  if (load->capped() == was_capped) return;
  for (TaskTracker* tr : load->trackers) update_offer(*tr);
}

void MapReduceEngine::sync_host_load() {
  if (membership_ == nullptr ||
      membership_->membership_epoch() == host_epoch_) {
    return;
  }
  // A VM moved, left or (re)joined a host since the totals were counted:
  // its running attempts now count toward a different host. Both the
  // record a tracker counted toward and its current one restart empty, so
  // a host left without trackers reads 0 and lists none, not stale ones.
  host_epoch_ = membership_->membership_epoch();
  const auto reset = [](HostLoad* load) {
    if (load == nullptr) return;
    load->running = 0;
    load->trackers.clear();
  };
  for (const auto& tr : trackers_) {
    reset(tr->host_load_);
    tr->host_load_ = host_load_of(tr->site());
    reset(tr->host_load_);
  }
  for (const auto& tr : trackers_) {
    if (HostLoad* load = tr->host_load_) {
      load->running += static_cast<int>(tr->running().size());
      load->trackers.push_back(tr.get());
    }
  }
  for (const auto& tr : trackers_) update_offer(*tr);
}

void MapReduceEngine::rebuild_dispatch_index() {
  tracker_by_site_.clear();
  offers_ = {};
  for (std::size_t i = 0; i < trackers_.size(); ++i) {
    TaskTracker* tr = trackers_[i].get();
    tr->index_ = static_cast<std::uint32_t>(i);
    tracker_by_site_.emplace(&tr->site(), tr);
    update_offer(*tr);
  }
}

int MapReduceEngine::reducers_for(const JobSpec& spec) const {
  if (spec.num_reducers > 0) return spec.num_reducers;
  // Hadoop's rule of thumb: 0.95 x total reduce slots.
  int slots = 0;
  for (const auto& tr : trackers_) slots += tr->reduce_slots();
  return std::max(1, static_cast<int>(0.95 * slots));
}

Job* MapReduceEngine::submit(const JobSpec& spec, PlacementPool pool) {
  require_trackers(trackers_);  // before staging leaves an orphan file
  const auto input = hdfs_.stage_file(
      spec.name + "-input-" + std::to_string(jobs_.size()), spec.input_mb(),
      spec.split_mb);
  return submit(spec, input, pool);
}

Job* MapReduceEngine::submit(const JobSpec& spec, storage::Hdfs::FileId input,
                             PlacementPool pool) {
  require_trackers(trackers_);
  const int id = static_cast<int>(jobs_.size());
  jobs_.push_back(std::make_unique<Job>(id, spec));
  Job* job = jobs_.back().get();
  job->input_file_ = input;
  job->submit_time_ = sim_.now();
  job->pool_ = pool;
  set_state(*job, JobState::kMapping);

  const int n_maps = hdfs_.num_blocks(input);
  job->maps_.reserve(static_cast<std::size_t>(n_maps));
  for (int i = 0; i < n_maps; ++i) {
    job->maps_.push_back(std::make_unique<Task>(*job, TaskType::kMap, i));
  }
  const int n_reduces = reducers_for(spec);
  job->reduces_.reserve(static_cast<std::size_t>(n_reduces));
  for (int i = 0; i < n_reduces; ++i) {
    job->reduces_.push_back(
        std::make_unique<Task>(*job, TaskType::kReduce, i));
  }
  for (const auto& t : job->maps_) t->sync_pending(*this);
  for (const auto& t : job->reduces_) t->sync_pending(*this);

  if (tel_ != nullptr) {
    tel_->trace.instant(
        sim_.now(), telemetry::EventKind::kJobSubmit,
        spec.name + "-j" + std::to_string(id), kJobTrack,
        {{"maps", telemetry::json_num(n_maps)},
         {"reduces", telemetry::json_num(n_reduces)},
         {"input_mb", telemetry::json_num(spec.input_mb().value())}});
  }
  maybe_start_speculation_monitor();
  dispatch();
  return job;
}

std::vector<TaskAttempt*> MapReduceEngine::running_attempts() const {
  std::vector<TaskAttempt*> out;
  for (const auto& tr : trackers_) {
    out.insert(out.end(), tr->running().begin(), tr->running().end());
  }
  return out;
}

bool MapReduceEngine::dispatch_wave(bool locality_only,
                                    std::uint64_t& tracker_scans,
                                    std::uint64_t& launches) {
  bool progressed = false;
  // Merge-walk the offer sets in index order — the visit order of a full
  // tracker scan, with map tried before reduce on each tracker — but only
  // the sets of a (type, partition) whose pick can possibly succeed
  // (schedulable_pending counts the same eligibility, pool and pending
  // flags pick() tests, so a zero is a proof, not a heuristic), and only
  // trackers whose host is under the cap (the sets leave the others out).
  // Launches during the wave mutate the sets (slot grants and a host
  // reaching its cap drop trackers, synchronous sibling kills re-add them)
  // and the counters, so the cursor re-enters via next(pos) instead of
  // holding a position, and every test re-reads the counters; a tracker
  // whose slot frees behind the cursor is picked up by the next wave,
  // exactly as the full re-scan would.
  std::uint32_t pos = 0;
  for (;;) {
    sync_host_load();
    std::uint32_t idx = Bitmap::kNone;
    for (TaskType type : kTaskTypes) {
      for (const bool virtual_site : {false, true}) {
        if (schedulable_pending(type, virtual_site) <= 0) continue;
        const Bitmap& offers = offers_[type_index(type)][virtual_site ? 1 : 0];
        idx = std::min(idx, offers.next(pos));
      }
    }
    if (idx == Bitmap::kNone) break;
    TaskTracker& tr = *trackers_[idx];
    pos = idx + 1;
    ++tracker_scans;
    audit_verify_visit(tr);
    const bool virtual_site = tr.site().is_virtual();
    for (TaskType type : kTaskTypes) {
      if (schedulable_pending(type, virtual_site) <= 0) continue;
      if (tr.free_slots(type) <= 0) continue;
      Task* task = scheduler_->pick(tr, type, live_, hdfs_, locality_only);
      if (task == nullptr) continue;
      tr.launch(*task);
      ++launches;
      progressed = true;
    }
  }
  audit_verify_offers();
  return progressed;
}

int MapReduceEngine::schedulable_pending(TaskType type,
                                         bool virtual_site) const {
  const auto& by_pool = schedulable_[type_index(type)];
  const PlacementPool own =
      virtual_site ? PlacementPool::kVirtualOnly : PlacementPool::kNativeOnly;
  return by_pool[static_cast<int>(PlacementPool::kAny)] +
         by_pool[static_cast<int>(own)];
}

void MapReduceEngine::add_schedulable(const Job& job, TaskType type,
                                      int delta) {
  if (!TaskScheduler::eligible(job, type)) return;
  schedulable_[type_index(type)][static_cast<int>(job.pool())] += delta;
}

void MapReduceEngine::add_running(Job& job, int delta) {
  const int before = job.running_attempts_;
  job.running_attempts_ += delta;
  if (job.live()) {
    live_.fair_order_.move(static_cast<std::uint32_t>(job.id()), before,
                           job.running_attempts_);
  }
}

void MapReduceEngine::set_state(Job& job, JobState state) {
  const bool was_live = job.live();
  for (TaskType type : kTaskTypes) {
    add_schedulable(job, type, -job.pending(type));
  }
  job.state_ = state;
  for (TaskType type : kTaskTypes) add_schedulable(job, type, job.pending(type));
  if (job.live() == was_live) return;
  const auto id = static_cast<std::uint32_t>(job.id());
  if (job.live()) {
    live_.submit_order_.push_back(&job);
    live_.fair_order_.insert(id, job.running_tasks());
  } else {
    // The submit-order list drops the job at the next dispatch, not here:
    // a FIFO pick or a wave may be iterating it when a launch finishes it.
    live_.fair_order_.erase(id, job.running_tasks());
    live_.stale_ = true;
  }
}

void MapReduceEngine::dispatch() {
  if (dispatching_) return;
  dispatching_ = true;
  telemetry::Scope prof_scope(prof_, prof_dispatch_scope_);
  if (live_.stale_) {
    std::erase_if(live_.submit_order_, [](const Job* j) { return !j->live(); });
    live_.stale_ = false;
  }
  sync_host_load();
  audit_verify_live_work();
  audit_verify_host_load();
  audit_verify_offers();
  std::uint64_t tracker_scans = 0;
  std::uint64_t launches = 0;
  // Nothing to place (or nowhere to place it): scheduler->pick() cannot
  // return a task, so skip the sweep.
  bool any_offer = false;
  for (const auto& by_partition : offers_) {
    for (const Bitmap& offers : by_partition) any_offer |= !offers.empty();
  }
  if (active_jobs() > 0 && any_offer) {
    // Round-robin one slot per tracker per pass (mirrors heartbeat
    // interleaving), locality round first (Hadoop's delay scheduling). The
    // per-host concurrency cap (host_cap()) acts like slots sized to the
    // hardware: it stops a host that frees a slot first from vacuuming the
    // job's tail while other hosts still have capacity — deferred tasks
    // are picked up on a later completion by a less-loaded host.
    for (bool locality_only : {true, false}) {
      while (dispatch_wave(locality_only, tracker_scans, launches)) {
      }
    }
  }
  if (prof_ != nullptr) {
    prof_->add(telemetry::WorkCounter::kDispatchPasses);
    prof_->add(telemetry::WorkCounter::kDispatchTrackerScans, tracker_scans);
    prof_->add(telemetry::WorkCounter::kDispatchLaunches, launches);
  }
  dispatching_ = false;
}

void MapReduceEngine::requeue(TaskAttempt& attempt, bool ban_tracker) {
  if (!attempt.running()) return;
  Task& task = attempt.task();
  TaskTracker* evicted_from = &attempt.tracker();
  if (ban_tracker) task.banned_trackers.insert(evicted_from);
  if (tel_ != nullptr) {
    tel_->trace.instant(sim_.now(), telemetry::EventKind::kTaskKilled,
                        attempt.label(), attempt.site().name(),
                        {{"banned", ban_tracker ? "true" : "false"}});
  }
  attempt.kill();
  ++requeue_count_;
  forgive_saturated_bans(task, ban_tracker ? evicted_from : nullptr);
  dispatch();
}

void MapReduceEngine::forgive_saturated_bans(Task& task,
                                             const TaskTracker* recent) {
  // Bans that cover every tracker able to run the task — each one neither
  // blacklisted nor excluded by the job's pool — would starve it, so they
  // are forgiven and the task can still finish somewhere. Except the most
  // recent one: re-dispatching straight back onto the tracker the attempt
  // was just evicted from would undo the IPS eviction the ban encodes.
  // That last ban expires after a short grace period instead.
  if (task.banned_trackers.empty()) return;
  for (const auto& tr : trackers_) {
    if (tr->blacklisted_ || !task.job().pool_allows(tr->site().is_virtual())) {
      continue;
    }
    if (!task.banned_trackers.contains(tr.get())) return;
  }
  task.banned_trackers.clear();
  if (recent == nullptr) return;
  task.banned_trackers.insert(recent);
  Task* tp = &task;
  sim_.after(kRequeueBanGrace, [this, tp, recent]() {
    if (tp->completed() || tp->job().finished()) return;
    if (tp->banned_trackers.erase(recent) > 0) dispatch();
  });
}

bool MapReduceEngine::fail_attempt(TaskAttempt& attempt, bool ban_tracker) {
  if (!attempt.running()) return true;
  Task& task = attempt.task();
  ++task.failed_attempts_;
  ++attempt_failures_;
  if (tel_ != nullptr) {
    tel_->trace.instant(
        sim_.now(), telemetry::EventKind::kTaskFailed, attempt.label(),
        attempt.site().name(),
        {{"failures", telemetry::json_num(task.failed_attempts_)},
         {"max_attempts", telemetry::json_num(kMaxAttempts)}});
  }
  if (task.failed_attempts_ >= kMaxAttempts) {
    attempt.kill();
    fail_job(task.job(), attempt.label() + " failed " +
                             std::to_string(task.failed_attempts_) +
                             " attempts");
    return false;
  }
  requeue(attempt, ban_tracker);
  return true;
}

void MapReduceEngine::fail_job(Job& job, const std::string& reason) {
  if (job.finished()) return;
  set_state(job, JobState::kFailed);
  job.finish_time_ = sim_.now();
  ++jobs_failed_;
  for (TaskType type : {TaskType::kMap, TaskType::kReduce}) {
    auto& tasks = type == TaskType::kMap ? job.maps_ : job.reduces_;
    for (auto& t : tasks) {
      for (auto& a : t->attempts_) {
        if (a->running()) a->kill();
      }
    }
  }
  if (tel_ != nullptr) {
    tel_->trace.instant(sim_.now(), telemetry::EventKind::kJobFailed,
                        job.spec().name + "-j" + std::to_string(job.id()),
                        kJobTrack, {{"reason", reason}});
  }
  audit_verify_job(job);
  if (job.on_complete) job.on_complete(job);
  dispatch();
}

bool MapReduceEngine::mark_tracker_lost(cluster::ExecutionSite& site) {
  TaskTracker* tr = tracker_on(site);
  if (tr == nullptr || tr->blacklisted_) return false;
  // Blacklist first so the requeues below cannot redispatch onto the dead
  // tracker mid-teardown (the offer-set drop makes indexed dispatch skip it
  // even while its slots free up).
  tr->blacklisted_ = true;
  update_offer(*tr);
  if (tel_ != nullptr) {
    tel_->trace.instant(sim_.now(), telemetry::EventKind::kTrackerLost,
                        site.name(), site.name());
  }
  // Running attempts die with the heartbeat, and reducers elsewhere that
  // were fetching (or queued to fetch) map output from this site must
  // restart. Both are KILLED, not FAILED: lost-tracker attempts do not
  // count against kMaxAttempts, as in Hadoop.
  requeue_attempts_depending_on(site);
  // Completed map outputs stored here are gone; Hadoop 1 re-executes them.
  reexecute_lost_map_outputs(site);
  // One tracker fewer can run work: bans that covered every other tracker
  // able to run a task now cover them all.
  for (Job* job : live_.submit_order_) {
    if (!job->live()) continue;
    for (auto* tasks : {&job->maps_, &job->reduces_}) {
      for (auto& t : *tasks) forgive_saturated_bans(*t, nullptr);
    }
  }
#if defined(HYBRIDMR_AUDIT_ENABLED)
  // Crash teardown must leave no slot leaked on the dead tracker.
  HYBRIDMR_AUDIT_CHECK(
      tr->running().empty() &&
          tr->free_slots(TaskType::kMap) == tr->map_slots() &&
          tr->free_slots(TaskType::kReduce) == tr->reduce_slots(),
      "mapred.engine", "no_slot_leak_on_tracker_loss", sim_.now(),
      {{"site", site.name()},
       {"running", audit::num(static_cast<double>(tr->running().size()))},
       {"free_map_slots", audit::num(tr->free_slots(TaskType::kMap))},
       {"free_reduce_slots", audit::num(tr->free_slots(TaskType::kReduce))}});
#endif
  dispatch();
  return true;
}

bool MapReduceEngine::restore_tracker(cluster::ExecutionSite& site) {
  TaskTracker* tr = tracker_on(site);
  if (tr == nullptr || !tr->blacklisted_) return false;
  tr->blacklisted_ = false;
  update_offer(*tr);
  if (tel_ != nullptr) {
    tel_->trace.instant(sim_.now(), telemetry::EventKind::kTrackerRestored,
                        site.name(), site.name());
  }
  dispatch();
  return true;
}

int MapReduceEngine::requeue_attempts_depending_on(
    const cluster::ExecutionSite& site) {
  int n = 0;
  // Snapshot: requeue() mutates the trackers' running lists.
  for (TaskAttempt* a : running_attempts()) {
    if (!a->running()) continue;  // killed earlier in this sweep
    if (!a->depends_on(site)) continue;
    requeue(*a, false);
    ++n;
  }
  return n;
}

int MapReduceEngine::reexecute_lost_map_outputs(
    const cluster::ExecutionSite& site) {
  int total = 0;
  for (Job* job : live_.submit_order_) {
    if (!job->live()) continue;
    int lost = 0;
    for (const auto& t : job->maps_) {
      if (!t->completed() || t->output_site_ != &site) continue;
      // Revert to pending: the next dispatch launches a fresh attempt.
      t->completed_ = false;
      t->duration_ = sim::Duration{-1};
      t->output_site_ = nullptr;
      t->speculative_launched = false;
      t->sync_pending(*this);
      --job->maps_done_;
      ++lost;
    }
    if (lost == 0) continue;
    total += lost;
    maps_reexecuted_ += lost;
    if (job->state_ == JobState::kReducing) {
      // Back to the map phase until the lost outputs are regenerated;
      // already-running reducers that do not touch the dead site keep
      // going, requeued ones wait for the phase to come back.
      set_state(*job, JobState::kMapping);
      job->map_phase_end_ = -1;
    }
    if (tel_ != nullptr) {
      tel_->trace.instant(
          sim_.now(), telemetry::EventKind::kMapOutputLost,
          job->spec().name + "-j" + std::to_string(job->id()), kJobTrack,
          {{"site", site.name()}, {"maps", telemetry::json_num(lost)}});
    }
    audit_verify_job(*job);
  }
  return total;
}

void MapReduceEngine::attempt_finished(TaskAttempt& attempt) {
  Task& task = attempt.task();
  if (task.job().finished()) return;  // terminal jobs take no completions
  if (task.completed_) return;  // a sibling already won (defensive)
  task.completed_ = true;
  task.sync_pending(*this);
  task.duration_ = sim::Duration{attempt.elapsed()};
  task.output_site_ = &attempt.site();
  for (const auto& other : task.attempts_) {
    if (other.get() != &attempt && other->running()) other->kill();
  }

  if (tel_ != nullptr) {
    tel_->trace.complete(attempt.started_at(), attempt.elapsed(),
                         telemetry::EventKind::kTaskFinish, attempt.label(),
                         attempt.site().name());
  }

  Job& job = task.job();
  if (task.type() == TaskType::kMap) {
    ++job.maps_done_;
    if (job.state_ == JobState::kMapping &&
        job.maps_done_ == static_cast<int>(job.maps_.size())) {
      job.map_phase_end_ = sim_.now();
      set_state(job, JobState::kReducing);
    }
  } else {
    ++job.reduces_done_;
    if (job.reduces_done_ == static_cast<int>(job.reduces_.size())) {
      // Every reducer has its data, so the job is done even if a lost map
      // output was mid-re-execution (state downgraded to kMapping); any
      // re-executed map still running is moot — kill it.
      for (auto& t : job.maps_) {
        for (auto& a : t->attempts_) {
          if (a->running()) a->kill();
        }
      }
      job.finish_time_ = sim_.now();
      set_state(job, JobState::kDone);
      if (tel_ != nullptr) {
        tel_->trace.complete(
            job.submit_time(), job.jct(), telemetry::EventKind::kJobFinish,
            job.spec().name + "-j" + std::to_string(job.id()), kJobTrack,
            {{"jct_s", telemetry::json_num(job.jct())},
             {"map_phase_s", telemetry::json_num(job.map_phase_seconds())},
             {"reduce_phase_s",
              telemetry::json_num(job.reduce_phase_seconds())}});
      }
      if (job.on_complete) job.on_complete(job);
    }
  }
  audit_verify_job(job);
  dispatch();
}

void MapReduceEngine::audit_verify_job(const Job& job) const {
#if defined(HYBRIDMR_AUDIT_ENABLED)
  const double now = sim_.now();
  int maps_completed = 0;
  int reduces_completed = 0;
  int running_scan = 0;
  int pending_scan[2] = {0, 0};
  for (TaskType type : {TaskType::kMap, TaskType::kReduce}) {
    const auto& tasks = type == TaskType::kMap ? job.maps() : job.reduces();
    for (const auto& t : tasks) {
      running_scan += t->running_count();
      const bool pending_actual = !t->completed() && t->running_count() == 0;
      if (pending_actual) ++pending_scan[type == TaskType::kMap ? 0 : 1];
      // The cached pending flag (what dispatch and the schedulable-count
      // fast path consult) must agree with the defining predicate.
      HYBRIDMR_AUDIT_CHECK(
          t->pending() == pending_actual, "mapred.engine",
          "pending_flag_conserved", now,
          {{"job", job.spec().name},
           {"task_type", type == TaskType::kMap ? "map" : "reduce"},
           {"task", audit::num(t->index())},
           {"cached", t->pending() ? "true" : "false"},
           {"actual", pending_actual ? "true" : "false"}});
      const auto details = [&]() {
        return std::vector<audit::Detail>{
            {"job", job.spec().name},
            {"task_type", type == TaskType::kMap ? "map" : "reduce"},
            {"task", audit::num(t->index())},
            {"completed", t->completed() ? "true" : "false"},
            {"running_attempts", audit::num(t->running_count())}};
      };
      // Exactly one state: pending, running or completed. A completed task
      // must have no live attempts (the winner kills its siblings), and a
      // live task has at most the original plus one speculative copy.
      HYBRIDMR_AUDIT_CHECK(!t->completed() || t->running_count() == 0,
                           "mapred.engine", "task_state_exclusive", now,
                           details());
      HYBRIDMR_AUDIT_CHECK(t->running_count() <= 2, "mapred.engine",
                           "task_state_exclusive", now, details());
      if (t->completed()) {
        (type == TaskType::kMap ? maps_completed : reduces_completed)++;
      }
    }
  }
  // The O(1) running-attempts counter (the fair-order index key) must
  // agree with a full scan of the attempt lists.
  HYBRIDMR_AUDIT_CHECK(running_scan == job.running_tasks(), "mapred.engine",
                       "running_counter_conserved", now,
                       {{"job", job.spec().name},
                        {"counter", audit::num(job.running_tasks())},
                        {"scan", audit::num(running_scan)}});
  // Likewise the per-job pending counts behind the engine-wide ones.
  HYBRIDMR_AUDIT_CHECK(pending_scan[0] == job.pending(TaskType::kMap) &&
                           pending_scan[1] == job.pending(TaskType::kReduce),
                       "mapred.engine", "pending_counter_conserved", now,
                       {{"job", job.spec().name},
                        {"maps_counter",
                         audit::num(job.pending(TaskType::kMap))},
                        {"maps_scan", audit::num(pending_scan[0])},
                        {"reduces_counter",
                         audit::num(job.pending(TaskType::kReduce))},
                        {"reduces_scan", audit::num(pending_scan[1])}});
  // Conservation: the phase counters match the per-task completion flags,
  // so no completion is double-counted or lost through the shuffle.
  HYBRIDMR_AUDIT_CHECK(
      maps_completed == job.maps_done() &&
          reduces_completed == job.reduces_done(),
      "mapred.engine", "completion_counts_conserved", now,
      {{"job", job.spec().name},
       {"maps_done", audit::num(job.maps_done())},
       {"maps_completed", audit::num(maps_completed)},
       {"reduces_done", audit::num(job.reduces_done())},
       {"reduces_completed", audit::num(reduces_completed)}});
  HYBRIDMR_AUDIT_CHECK(
      job.state() != JobState::kReducing ||
          job.maps_done() == static_cast<int>(job.maps().size()),
      "mapred.engine", "completion_counts_conserved", now,
      {{"job", job.spec().name},
       {"state", to_string(job.state())},
       {"maps_done", audit::num(job.maps_done())},
       {"maps", audit::num(static_cast<double>(job.maps().size()))}});
  HYBRIDMR_AUDIT_CHECK(
      (job.state() == JobState::kDone) ==
          (job.reduces_done() == static_cast<int>(job.reduces().size())),
      "mapred.engine", "completion_counts_conserved", now,
      {{"job", job.spec().name},
       {"state", to_string(job.state())},
       {"reduces_done", audit::num(job.reduces_done())},
       {"reduces", audit::num(static_cast<double>(job.reduces().size()))}});
#else
  (void)job;
#endif
}

void MapReduceEngine::audit_verify_live_work() const {
#if defined(HYBRIDMR_AUDIT_ENABLED)
  const double now = sim_.now();
  std::vector<const Job*> live;
  std::array<std::array<int, 3>, 2> schedulable{};
  for (const auto& job : jobs_) {
    if (!job->live()) continue;
    live.push_back(job.get());
    for (TaskType type : kTaskTypes) {
      // The job's pending set holds exactly its pending tasks' indices.
      const auto& tasks = type == TaskType::kMap ? job->maps() : job->reduces();
      const Bitmap& pending = job->pending_set(type);
      int flagged = 0;
      bool bits_match =
          pending.next(static_cast<std::uint32_t>(tasks.size())) ==
          Bitmap::kNone;
      for (const auto& t : tasks) {
        bits_match &=
            pending.contains(static_cast<std::uint32_t>(t->index())) ==
            t->pending();
        flagged += t->pending() ? 1 : 0;
      }
      HYBRIDMR_AUDIT_CHECK(
          bits_match && job->pending(type) == flagged, "mapred.engine",
          "pending_set_conserved", now,
          {{"job", job->spec().name},
           {"task_type", type == TaskType::kMap ? "map" : "reduce"},
           {"bits", audit::num(job->pending(type))},
           {"pending_tasks", audit::num(flagged)}});
      if (TaskScheduler::eligible(*job, type)) {
        schedulable[type_index(type)][static_cast<int>(job->pool())] +=
            flagged;
      }
    }
  }
  // The submit-order list holds exactly the live jobs, in id order (it is
  // compacted at the start of every dispatch, where this runs).
  HYBRIDMR_AUDIT_CHECK(
      std::equal(live.begin(), live.end(), live_.submit_order_.begin(),
                 live_.submit_order_.end()),
      "mapred.engine", "live_jobs_conserved", now,
      {{"live", audit::num(static_cast<double>(live.size()))},
       {"listed",
        audit::num(static_cast<double>(live_.submit_order_.size()))}});
  for (TaskType type : kTaskTypes) {
    for (int pool = 0; pool < 3; ++pool) {
      const int counter = schedulable_[type_index(type)][pool];
      const int scan = schedulable[type_index(type)][pool];
      HYBRIDMR_AUDIT_CHECK(counter == scan, "mapred.engine",
                           "schedulable_pending_conserved", now,
                           {{"task_type", type == TaskType::kMap ? "map"
                                                                 : "reduce"},
                            {"pool", audit::num(pool)},
                            {"counter", audit::num(counter)},
                            {"scan", audit::num(scan)}});
    }
  }
  // The fair order holds each live job once, in the bucket of its current
  // running count: (running_tasks(), id) order.
  std::size_t members = 0;
  live_.fair_order_.find_first([&members](std::uint32_t) -> const Job* {
    ++members;
    return nullptr;
  });
  HYBRIDMR_AUDIT_CHECK(
      live_.fair_order_.size() == live.size() && members == live.size(),
      "mapred.engine", "fair_index_conserved", now,
      {{"live", audit::num(static_cast<double>(live.size()))},
       {"indexed", audit::num(static_cast<double>(live_.fair_order_.size()))},
       {"members", audit::num(static_cast<double>(members))}});
  for (const Job* job : live) {
    HYBRIDMR_AUDIT_CHECK(
        live_.fair_order_.contains(static_cast<std::uint32_t>(job->id()),
                                   job->running_tasks()),
        "mapred.engine", "fair_index_conserved", now,
        {{"job", job->spec().name},
         {"running", audit::num(job->running_tasks())}});
  }
#endif
}

namespace {

// Running attempts per physical host by a full tracker scan: what the
// engine's host totals must equal (audit checkpoints only).
[[maybe_unused]] std::map<const cluster::Machine*, int> scan_host_load(
    const std::vector<std::unique_ptr<TaskTracker>>& trackers) {
  std::map<const cluster::Machine*, int> load;
  for (const auto& tr : trackers) {
    if (const cluster::Machine* host = tr->site().host_machine()) {
      load[host] += static_cast<int>(tr->running().size());
    }
  }
  return load;
}

}  // namespace

void MapReduceEngine::audit_verify_host_load() const {
#if defined(HYBRIDMR_AUDIT_ENABLED)
  const auto scan = scan_host_load(trackers_);
  std::map<const HostLoad*, std::vector<TaskTracker*>> listed;
  for (const auto& tr : trackers_) {
    const cluster::Machine* host = tr->site().host_machine();
    const HostLoad* load = tr->host_load_;
    if (load != nullptr) listed[load].push_back(tr.get());
    // The tracker's record is its current host's, and its count is exact.
    HYBRIDMR_AUDIT_CHECK(
        (host == nullptr) == (load == nullptr) &&
            (host == nullptr ||
             (load->host == host && load->running == scan.at(host))),
        "mapred.engine", "host_load_conserved", sim_.now(),
        {{"site", tr->site().name()},
         {"host", host == nullptr ? "none" : host->name()},
         {"recorded_host", load == nullptr ? "none" : load->host->name()},
         {"total", audit::num(load == nullptr ? 0 : load->running)},
         {"tracker_scan", audit::num(host == nullptr ? 0 : scan.at(host))}});
  }
  // Each record lists exactly the trackers that point at it, in index
  // order (the scan above visits them in that order).
  for (const auto& tr : trackers_) {
    const HostLoad* load = tr->host_load_;
    if (load == nullptr) continue;
    const auto& trackers = listed.at(load);
    HYBRIDMR_AUDIT_CHECK(load->trackers == trackers, "mapred.engine",
                         "host_load_conserved", sim_.now(),
                         {{"host", load->host->name()},
                          {"listed",
                           audit::num(static_cast<double>(
                               load->trackers.size()))},
                          {"tracker_scan",
                           audit::num(static_cast<double>(trackers.size()))}});
  }
#endif
}

void MapReduceEngine::audit_verify_visit(const TaskTracker& tracker) const {
#if defined(HYBRIDMR_AUDIT_ENABLED)
  const cluster::Machine* host = tracker.site().host_machine();
  if (host == nullptr) return;
  const int running = scan_host_load(trackers_).at(host);
  HYBRIDMR_AUDIT_CHECK(running < host_cap(*host), "mapred.engine",
                       "host_gate_matches_scan", sim_.now(),
                       {{"host", host->name()},
                        {"site", tracker.site().name()},
                        {"tracker_scan", audit::num(running)},
                        {"cap", audit::num(host_cap(*host))}});
#else
  (void)tracker;
#endif
}

void MapReduceEngine::audit_verify_offers() const {
#if defined(HYBRIDMR_AUDIT_ENABLED)
  const auto load = scan_host_load(trackers_);
  for (TaskType type : kTaskTypes) {
    for (const bool virtual_site : {false, true}) {
      const Bitmap& offers = offers_[type_index(type)][virtual_site ? 1 : 0];
      std::size_t scan = 0;
      bool bits_match =
          offers.next(static_cast<std::uint32_t>(trackers_.size())) ==
          Bitmap::kNone;
      for (std::uint32_t i = 0; i < trackers_.size(); ++i) {
        const TaskTracker& tr = *trackers_[i];
        const cluster::Machine* host = tr.site().host_machine();
        const bool capped =
            host != nullptr && load.at(host) >= host_cap(*host);
        const bool open = tr.site().is_virtual() == virtual_site &&
                          !tr.blacklisted_ && tr.free_slots(type) > 0 &&
                          !capped;
        bits_match &= offers.contains(i) == open;
        scan += open ? 1 : 0;
      }
      HYBRIDMR_AUDIT_CHECK(
          bits_match && offers.size() == scan, "mapred.engine",
          "offer_sets_match_scan", sim_.now(),
          {{"task_type", type == TaskType::kMap ? "map" : "reduce"},
           {"partition", virtual_site ? "virtual" : "native"},
           {"offered", audit::num(static_cast<double>(offers.size()))},
           {"scan", audit::num(static_cast<double>(scan))}});
    }
  }
#endif
}

TaskTracker* MapReduceEngine::tracker_with_free_slot(
    TaskType type, const TaskTracker* exclude, const Task& task) const {
  // Prefer the tracker on the least-loaded physical host: a speculative
  // copy is pointless on a machine as contended as the straggler's.
  TaskTracker* best = nullptr;
  double best_load = 1e300;
  for (const auto& tr : trackers_) {
    if (tr.get() == exclude) continue;
    if (tr->blacklisted_) continue;
    if (task.banned_trackers.contains(tr.get())) continue;
    if (!task.job().pool_allows(tr->site().is_virtual())) continue;
    if (tr->free_slots(type) <= 0) continue;
    const cluster::Machine* host = tr->site().host_machine();
    double load = static_cast<double>(tr->running().size());
    if (host != nullptr) {
      load += 4.0 * host->utilization(cluster::ResourceKind::kCpu) +
              2.0 * host->utilization(cluster::ResourceKind::kDisk);
    }
    if (load < best_load) {
      best_load = load;
      best = tr.get();
    }
  }
  return best;
}

void MapReduceEngine::maybe_start_speculation_monitor() {
  if (!options_.speculative_execution || speculation_ticker_.active()) return;
  // Stops itself once no job is live; the next submit starts it again.
  speculation_ticker_ = sim_.every(kSpeculationInterval, [this]() {
    if (active_jobs() == 0) {
      speculation_ticker_.cancel();
      return;
    }
    speculation_scan();
  });
}

void MapReduceEngine::speculation_scan() {
  telemetry::Scope prof_scope(prof_, prof_speculation_scope_);
  if (prof_ != nullptr) {
    prof_->add(telemetry::WorkCounter::kSpeculationScans);
  }
  // Only a (job, type) group with a running attempt past the maturity bar
  // can yield a copy: the loops below judge and copy mature attempts only,
  // and make no progress() call in any other group. One pass over the
  // running lists marks those groups; sorted, they come in today's order —
  // job (submit) order, maps before reduces.
  std::vector<std::pair<int, TaskType>> mature;
  for (const auto& tr : trackers_) {
    for (const TaskAttempt* a : tr->running()) {
      if (sim::Duration{a->elapsed()} >= kSpeculationMinElapsed) {
        mature.emplace_back(a->task().job().id(), a->task().type());
      }
    }
  }
  std::sort(mature.begin(), mature.end());
  mature.erase(std::unique(mature.begin(), mature.end()), mature.end());
  for (const auto& [job_id, type] : mature) {
    Job* job = jobs_[static_cast<std::size_t>(job_id)].get();
    if (!job->live()) continue;
    const auto& tasks =
        type == TaskType::kMap ? job->maps() : job->reduces();
    // Mean progress rate over mature running attempts plus completed
    // tasks (whose rate is 1/duration) of this (job, type).
    double sum_rate = 0;
    int n = 0;
    for (const auto& t : tasks) {
      if (t->completed() && t->duration() > sim::Duration{0}) {
        sum_rate += 1.0 / t->duration().value();
        ++n;
        continue;
      }
      TaskAttempt* a = t->running_attempt();
      if (a == nullptr ||
          sim::Duration{a->elapsed()} < kSpeculationMinElapsed) {
        continue;
      }
      sum_rate += a->progress_rate();
      ++n;
    }
    if (n < 2) continue;
    const double mean_rate = sum_rate / n;
    // Hadoop's speculative cap: at most ~10% of a job's tasks may have
    // live speculative copies at once.
    int live_copies = 0;
    for (const auto& t : tasks) {
      if (!t->completed() && t->running_count() > 1) ++live_copies;
    }
    const int copy_budget =
        std::max(1, static_cast<int>(tasks.size()) / 10) - live_copies;
    int copies_left = std::max(0, copy_budget);
    for (const auto& t : tasks) {
      if (copies_left <= 0) break;
      if (t->completed() || t->speculative_launched) continue;
      TaskAttempt* a = t->running_attempt();
      if (a == nullptr ||
          sim::Duration{a->elapsed()} < kSpeculationMinElapsed) {
        continue;
      }
      if (a->progress() > 0.9) continue;
      if (a->progress_rate() <
          (1.0 - cal_.speculative_slowdown_threshold) * mean_rate) {
        TaskTracker* target =
            tracker_with_free_slot(type, &a->tracker(), *t);
        if (target == nullptr) continue;
        t->speculative_launched = true;
        ++speculative_count_;
        --copies_left;
        if (tel_ != nullptr) {
          tel_->trace.instant(
              sim_.now(), telemetry::EventKind::kSpeculativeLaunch,
              job->spec().name + "-j" + std::to_string(job->id()) +
                  (type == TaskType::kMap ? "-m" : "-r") +
                  std::to_string(t->index()),
              target->site().name(),
              {{"progress", telemetry::json_num(a->progress())},
               {"mean_rate", telemetry::json_num(mean_rate)}});
        }
        target->launch(*t);
      }
    }
  }
}

void MapReduceEngine::set_telemetry(telemetry::Hub* hub) {
  tel_ = hub;
  prof_ = hub != nullptr && hub->profiler.enabled() ? &hub->profiler : nullptr;
  if (prof_ != nullptr) {
    prof_dispatch_scope_ = prof_->intern("mapred.dispatch");
    prof_speculation_scope_ = prof_->intern("mapred.speculation_scan");
  }
}

void MapReduceEngine::note_task_started(const TaskAttempt& attempt) {
  if (tel_ == nullptr) return;
  tel_->trace.instant(sim_.now(), telemetry::EventKind::kTaskStart,
                      attempt.label(), attempt.site().name());
}

std::size_t MapReduceEngine::add_release_observer(
    std::function<void(const TaskAttempt&)> fn) {
  release_observers_.push_back(std::move(fn));
  return release_observers_.size() - 1;
}

void MapReduceEngine::remove_release_observer(std::size_t token) {
  if (token < release_observers_.size()) release_observers_[token] = nullptr;
}

void MapReduceEngine::note_attempt_released(const TaskAttempt& attempt) {
  for (const auto& fn : release_observers_) {
    if (fn) fn(attempt);
  }
}

void MapReduceEngine::note_shuffle_started(const TaskAttempt& attempt,
                                           sim::MegaBytes total_mb,
                                           int sources) {
  if (tel_ == nullptr) return;
  tel_->trace.instant(sim_.now(), telemetry::EventKind::kShuffleStart,
                      attempt.label(), attempt.site().name(),
                      {{"mb", telemetry::json_num(total_mb.value())},
                       {"sources", telemetry::json_num(sources)}});
}

}  // namespace hybridmr::mapred
