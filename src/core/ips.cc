#include "core/ips.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>

#include "telemetry/telemetry.h"
#include "whatif/fork.h"

namespace hybridmr::core {

using cluster::Machine;
using cluster::Resources;
using cluster::VirtualMachine;
using mapred::TaskAttempt;

namespace {

/// Cap multiplier applied by the throttle action.
constexpr double kThrottleFactor = 0.4;
/// Restores applied per epoch (gradual back-off).
constexpr int kMaxRestoresPerEpoch = 1;

}  // namespace

bool restores_before(const TaskAttempt& a, const TaskAttempt& b) {
  if (a.started_at() != b.started_at()) return a.started_at() < b.started_at();
  const mapred::Task& ta = a.task();
  const mapred::Task& tb = b.task();
  if (ta.job().id() != tb.job().id()) return ta.job().id() < tb.job().id();
  if (ta.type() != tb.type()) return ta.type() < tb.type();
  return ta.index() < tb.index();
}

std::vector<TaskAttempt*> Arbiter::rank_interferers(
    const Machine& host, const std::vector<TaskAttempt*>& running) const {
  std::vector<std::pair<double, TaskAttempt*>> scored;
  for (TaskAttempt* a : running) {
    if (!a->running()) continue;
    if (a->site().host_machine() != &host) continue;
    const TaskModel* model = estimator_->model(a);
    double score;
    if (model != nullptr) {
      score = model->interference_score(host.capacity());
    } else {
      score = a->current_allocation().dominant_share(host.capacity());
    }
    scored.emplace_back(score, a);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    if (x.second->started_at() != y.second->started_at()) {
      return x.second->started_at() < y.second->started_at();
    }
    return x.second->task().index() < y.second->task().index();
  });
  std::vector<TaskAttempt*> out;
  out.reserve(scored.size());
  for (auto& [score, a] : scored) out.push_back(a);
  return out;
}

Machine* Arbiter::best_fit_host(
    const cluster::HybridCluster& cluster, const Resources& needed,
    const std::vector<const Machine*>& excluded) const {
  Machine* best = nullptr;
  double best_headroom = std::numeric_limits<double>::infinity();
  for (const auto& m : cluster.machines()) {
    if (!m->powered()) continue;
    if (std::find(excluded.begin(), excluded.end(), m.get()) !=
        excluded.end()) {
      continue;
    }
    // Spare capacity on the dominant dimensions.
    const double spare_cpu =
        m->capacity().cpu * (1.0 - m->utilization(cluster::ResourceKind::kCpu));
    const double spare_mem =
        m->capacity().memory *
        (1.0 - m->utilization(cluster::ResourceKind::kMemory));
    if (spare_cpu < needed.cpu || spare_mem < needed.memory) continue;
    // BestFit: tightest host that still fits.
    const double headroom = spare_cpu / std::max(0.1, needed.cpu) +
                            spare_mem / std::max(64.0, needed.memory);
    if (headroom < best_headroom) {
      best_headroom = headroom;
      best = m.get();
    }
  }
  return best;
}

InterferencePreventionSystem::InterferencePreventionSystem(
    sim::Simulation& sim, mapred::MapReduceEngine& mr,
    cluster::HybridCluster& cluster, interactive::SlaMonitor& monitor,
    Estimator& estimator, IpsOptions options)
    : sim_(sim),
      mr_(mr),
      cluster_(cluster),
      monitor_(monitor),
      estimator_(estimator),
      options_(options),
      arbiter_(estimator) {
  // Event-driven action cleanup: every attempt death funnels through
  // TaskTracker::release, so the action map never holds a dead attempt
  // past the instant it dies — owns() answers correctly between epochs
  // (the DRM consults it mid-epoch) and a chaos teardown cannot leave
  // throttle/pause state behind.
  release_observer_token_ = mr_.add_release_observer(
      [this](const TaskAttempt& attempt) {
        actions_.erase(const_cast<TaskAttempt*>(&attempt));
      });
}

InterferencePreventionSystem::~InterferencePreventionSystem() {
  mr_.remove_release_observer(release_observer_token_);
}

void InterferencePreventionSystem::prune_stale_state() {
  // Backstop only: the release observer erases these the moment an
  // attempt dies. Kept because an epoch must never arbitrate over a dead
  // attempt even if observer wiring is bypassed.
  std::erase_if(actions_,
                [](const auto& kv) { return !kv.first->running(); });
  // A crashed (powered-off) machine keeps no hysteresis: its streaks and
  // flap ratchet describe a colocation that no longer exists, and a
  // reboot starts clean. Without this the per-host maps grow without
  // bound under chaos schedules.
  const auto host_down = [](const auto& kv) {
    return kv.first == nullptr || !kv.first->powered();
  };
  std::erase_if(healthy_streak_, host_down);
  std::erase_if(required_streak_, host_down);
  std::erase_if(last_restore_, [&](const auto& kv) {
    if (kv.first == nullptr || !kv.first->powered()) return true;
    // Restores old enough to be outside the flap window are inert for the
    // ratchet check; drop them so the map stays bounded on long runs.
    return sim_.now() - kv.second >= 6 * options_.epoch_s &&
           !required_streak_.contains(kv.first);
  });
}

int InterferencePreventionSystem::required_streak(const Machine& host) const {
  const auto it = required_streak_.find(&host);
  return it == required_streak_.end() ? kRestoreStreak : it->second;
}

bool InterferencePreventionSystem::tracks_host(const Machine& host) const {
  return healthy_streak_.contains(&host) ||
         required_streak_.contains(&host) || last_restore_.contains(&host);
}

double InterferencePreventionSystem::batch_progress() const {
  double done = 0;
  for (const auto& job : mr_.jobs()) {
    done += job->maps_done() + job->reduces_done();
  }
  return done;
}

void InterferencePreventionSystem::escalate(TaskAttempt& attempt) {
  auto it = actions_.find(&attempt);
  if (it == actions_.end()) {
    // Level 1: throttle the task's shares.
    Resources caps = attempt.current_demand() * kThrottleFactor;
    caps.memory = attempt.caps().memory;  // heap cannot shrink in flight
    attempt.set_caps(caps);
    actions_[&attempt] = ActionLevel::kThrottled;
    ++stats_.throttles;
    note_action("throttle", attempt.label(), attempt.site().name());
    return;
  }
  if (it->second == ActionLevel::kThrottled) {
    attempt.set_paused(true);
    it->second = ActionLevel::kPaused;
    ++stats_.pauses;
    note_action("pause", attempt.label(), attempt.site().name());
    return;
  }
  if (options_.allow_requeue) {
    // Level 3: evict — kill the attempt and let the JobTracker rerun it
    // elsewhere (the paper: "the VM running the task ... can even be
    // aborted; correctness is preserved by speculative re-execution").
    const std::string label = attempt.label();
    const std::string track = attempt.site().name();
    actions_.erase(it);
    mr_.requeue(attempt, /*ban_tracker=*/true);
    ++stats_.requeues;
    note_action("requeue", label, track);
  }
}

void InterferencePreventionSystem::migrate_batch_vm(
    const Machine& violated_host) {
  if (!options_.allow_vm_migration) return;
  // A VM on the violated host is a migration candidate when it hosts batch
  // work but no interactive application (we must not move the app itself).
  const auto running = mr_.running_attempts();
  for (auto* vm : violated_host.vms()) {
    if (vm->migrating()) continue;
    bool hosts_batch = false;
    bool hosts_interactive = false;
    for (const auto& m : vm->members()) {
      if (!m.workload->finite()) hosts_interactive = true;
    }
    for (TaskAttempt* a : running) {
      if (a->running() && &a->site() == vm) hosts_batch = true;
    }
    if (!hosts_batch || hosts_interactive) continue;

    std::vector<const Machine*> excluded{&violated_host};
    // Also exclude any host currently violating an SLA.
    for (auto* app : monitor_.violators()) {
      excluded.push_back(app->site().host_machine());
    }
    Resources needed;
    needed.cpu = vm->vcpus().value() * 0.5;
    needed.memory = vm->memory_mb().value();
    Machine* dest = arbiter_.best_fit_host(cluster_, needed, excluded);
    if (dest != nullptr &&
        cluster_.migrator().migrate(*vm, *dest)) {
      ++stats_.vm_migrations;
      note_action("migrate_vm", vm->name() + "->" + dest->name(),
                  violated_host.name());
      return;  // one migration per epoch
    }
  }
}

namespace {

/// What one candidate's lookahead child measured at the horizon. Parent
/// and child are one forked image, so the child sends the record's bytes.
struct Score {
  double viol_frac;
  double resp_s;
  double done;
};
static_assert(std::is_trivially_copyable_v<Score>);

/// A candidate's score as the parent judges it: `ok` only for a child that
/// exited cleanly with exactly one Score.
struct Prediction {
  bool ok = false;
  Score score{1.0, std::numeric_limits<double>::infinity(), 0};
};

}  // namespace

InterferencePreventionSystem::PredictiveOutcome
InterferencePreventionSystem::mitigate_predictive(
    interactive::InteractiveApp& app, const Machine& host,
    const std::vector<TaskAttempt*>& ranked) {
  // Candidates ordered cheapest first: equally-good predictions resolve
  // toward the least invasive action ("hold" wins when acting buys
  // nothing — the advantage a closed-form policy cannot have).
  std::vector<const char*> names;
  std::vector<whatif::WhatIfEngine::Candidate> candidates;
  const auto offer = [&](const char* name,
                         whatif::WhatIfEngine::Candidate apply) {
    names.push_back(name);
    candidates.push_back(std::move(apply));
  };
  offer("hold", []() {});
  const int escalations =
      std::min<int>(options_.max_actions_per_epoch,
                    static_cast<int>(ranked.size()));
  if (escalations >= 1) {
    offer("escalate", [this, &ranked]() { escalate(*ranked[0]); });
  }
  if (escalations >= 2) {
    offer("escalate2", [this, &ranked]() {
      escalate(*ranked[0]);
      escalate(*ranked[1]);
    });
  }
  if (options_.allow_vm_migration) {
    offer("migrate", [this, &host]() { migrate_batch_vm(host); });
  }
  if (escalations >= 1 && options_.allow_vm_migration) {
    offer("escalate+migrate", [this, &ranked, &host]() {
      escalate(*ranked[0]);
      migrate_batch_vm(host);
    });
  }

  // The child reports the app's SLA trajectory over the horizon window
  // plus total batch progress — recovery and makespan cost in one Score.
  // Captures: `app` and `this` are stable addresses the forked child
  // shares; `t0` rides by value inside the copied closure.
  const double t0 = sim_.now();
  const interactive::InteractiveApp* app_ptr = &app;
  const auto score = [this, app_ptr, t0]() {
    const Score p{interactive::SlaMonitor::violation_fraction(*app_ptr, t0,
                                                              sim_.now()),
                  app_ptr->response_time_s(), batch_progress()};
    return std::string(reinterpret_cast<const char*>(&p), sizeof p);
  };

  const auto la = whatif_->lookahead_in_event(
      candidates, sim::Duration{options_.lookahead_horizon_s}, score);
  if (la.is_child) return PredictiveOutcome::kChild;
  stats_.lookaheads += static_cast<int>(candidates.size());
  std::vector<Prediction> preds;
  preds.reserve(candidates.size());
  for (const whatif::ForkResult& r : la.results) {
    Prediction p;
    if (r.ok && r.payload.size() == sizeof(Score)) {
      p.ok = true;
      std::memcpy(&p.score, r.payload.data(), sizeof(Score));
    }
    preds.push_back(p);
  }

  const auto recovered = [&](const Prediction& p) {
    return p.ok && sim::Duration{p.score.resp_s} <=
                       app.params().sla_s * options_.restore_margin;
  };
  // Lexicographic ranking: recover the SLA first; among recovering
  // candidates maximize batch progress (minimal makespan damage); among
  // non-recovering ones minimize the violation fraction, then the final
  // response time, then batch damage. Ties keep the cheaper candidate.
  const auto better = [&](const Prediction& x, const Prediction& y) {
    const bool rx = recovered(x);
    const bool ry = recovered(y);
    if (rx != ry) return rx;
    const Score& a = x.score;
    const Score& b = y.score;
    if (rx) return a.done > b.done;
    if (a.viol_frac != b.viol_frac) return a.viol_frac < b.viol_frac;
    if (a.resp_s != b.resp_s) return a.resp_s < b.resp_s;
    return a.done > b.done;
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < preds.size(); ++i) {
    if (better(preds[i], preds[best])) best = i;
  }
  if (!preds[best].ok) return PredictiveOutcome::kFallback;

  // Decision record: every candidate's child status and score beside the
  // pick, so a trace shows why the winner won.
  std::vector<std::pair<std::string, std::string>> scores;
  if (tel_ != nullptr) {
    for (std::size_t i = 0; i < preds.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "ok=%d viol=%.17g resp=%.17g done=%.17g",
                    preds[i].ok ? 1 : 0, preds[i].score.viol_frac,
                    preds[i].score.resp_s, preds[i].score.done);
      scores.emplace_back(names[i], buf);
    }
  }
  note_action("lookahead", names[best], host.name(), std::move(scores));
  if (best == 0) {
    ++stats_.lookahead_holds;
    return PredictiveOutcome::kApplied;
  }
  candidates[best]();
  return PredictiveOutcome::kApplied;
}

void InterferencePreventionSystem::mitigate_classic(
    const Machine& host, const std::vector<TaskAttempt*>& ranked) {
  int applied = 0;
  for (TaskAttempt* a : ranked) {
    if (applied >= options_.max_actions_per_epoch) break;
    escalate(*a);
    ++applied;
  }
  if (ranked.empty()) {
    // Interference is coming from a neighbouring VM's batch work that is
    // not task-addressable from here; fall back to VM migration.
    migrate_batch_vm(host);
  } else if (applied > 0 && ranked.size() > static_cast<std::size_t>(
                                applied)) {
    migrate_batch_vm(host);
  }
}

bool InterferencePreventionSystem::mitigate(interactive::InteractiveApp& app) {
  Machine* host = app.site().host_machine();
  if (host == nullptr) return true;
  // Violating again shortly after a restore: require a longer healthy
  // streak before backing off next time (exponential, capped; the decay
  // in restore_where_healthy() unwinds it over sustained health).
  auto last = last_restore_.find(host);
  if (last != last_restore_.end() &&
      sim_.now() - last->second < 6 * options_.epoch_s) {
    int& required = required_streak_[host];
    required = std::min(64, std::max(kRestoreStreak, required) * 2);
  }
  const auto running = mr_.running_attempts();
  const auto ranked = arbiter_.rank_interferers(*host, running);

  if (options_.model_predictive && whatif_ != nullptr &&
      !whatif_->in_lookahead()) {
    switch (mitigate_predictive(app, *host, ranked)) {
      case PredictiveOutcome::kChild:
        return false;
      case PredictiveOutcome::kApplied:
        return true;
      case PredictiveOutcome::kFallback:
        break;  // no usable prediction: Algorithm 3 below
    }
  }
  mitigate_classic(*host, ranked);
  return true;
}

void InterferencePreventionSystem::restore_where_healthy() {
  // Track per-host healthy streaks: a host is healthy when every resident
  // app sits below margin * SLA. Actions step down only after
  // `kRestoreStreak` consecutive healthy epochs (hysteresis), and only
  // kMaxRestoresPerEpoch at a time (gradual back-off).
  std::map<const Machine*, bool> host_healthy;
  for (auto* app : monitor_.apps()) {
    if (!app->running()) continue;
    const Machine* host = app->site().host_machine();
    if (host == nullptr) continue;  // site detached by a host crash
    const bool ok = sim::Duration{app->response_time_s()} <=
                    app->params().sla_s * options_.restore_margin;
    auto it = host_healthy.find(host);
    host_healthy[host] = it == host_healthy.end() ? ok : (it->second && ok);
  }
  for (const auto& [host, ok] : host_healthy) {
    if (ok) {
      ++healthy_streak_[host];
    } else {
      healthy_streak_[host] = 0;
    }
  }

  // Flap-guard decay: the ratchet doubles on re-offense but must not
  // outlive the flapping it guards against — every `ratchet_decay_epochs`
  // consecutive healthy epochs halves a host's requirement, and a
  // requirement back at the configured floor is dropped entirely. (Order
  // independent: each entry only consults its own host's streak.)
  for (auto it = required_streak_.begin(); it != required_streak_.end();) {
    const auto hs = healthy_streak_.find(it->first);
    const int streak = hs == healthy_streak_.end() ? 0 : hs->second;
    if (streak > 0 && streak % options_.ratchet_decay_epochs == 0) {
      it->second /= 2;
    }
    if (it->second <= kRestoreStreak) {
      it = required_streak_.erase(it);
    } else {
      ++it;
    }
  }

  int restored = 0;
  std::vector<TaskAttempt*> to_restore;
  for (auto& [attempt, level] : actions_) {
    const Machine* host = attempt->site().host_machine();
    const bool monitored = host_healthy.contains(host);
    const int needed =
        std::max(kRestoreStreak,
                 monitored && required_streak_.contains(host)
                     ? required_streak_.at(host)
                     : 0);
    const bool eligible = !monitored || healthy_streak_[host] >= needed;
    if (eligible) to_restore.push_back(attempt);
  }
  std::sort(to_restore.begin(), to_restore.end(),
            [](const TaskAttempt* a, const TaskAttempt* b) {
              return restores_before(*a, *b);
            });
  for (TaskAttempt* a : to_restore) {
    if (restored >= kMaxRestoresPerEpoch) break;
    auto it = actions_.find(a);
    if (it->second == ActionLevel::kPaused) {
      a->set_paused(false);
      it->second = ActionLevel::kThrottled;
    } else {
      a->set_caps(a->base_caps());
      actions_.erase(it);
    }
    ++stats_.restores;
    ++restored;
    last_restore_[a->site().host_machine()] = sim_.now();
    note_action("restore", a->label(), a->site().name());
  }
}

void InterferencePreventionSystem::note_action(
    const char* action, const std::string& target, const std::string& track,
    std::vector<std::pair<std::string, std::string>> extra) {
  if (tel_ == nullptr) return;
  extra.insert(extra.begin(), {"target", target});
  tel_->trace.instant(sim_.now(), telemetry::EventKind::kIpsAction, action,
                      track, std::move(extra));
}

void InterferencePreventionSystem::epoch() {
  prune_stale_state();
  const auto violators = monitor_.violators();
  stats_.violations_seen += static_cast<int>(violators.size());
  // (Violation onsets are traced by the apps themselves; the IPS counts
  // how many violator-epochs it had to arbitrate.)
  for (auto* app : violators) {
    if (!mitigate(*app)) return;  // forked lookahead child: unwind now
  }
  restore_where_healthy();
}

void InterferencePreventionSystem::start() {
  if (ticker_.active()) return;
  ticker_ = sim_.every(options_.epoch_s, [this]() { epoch(); },
                       options_.epoch_s);
}

void InterferencePreventionSystem::stop() { ticker_.cancel(); }

}  // namespace hybridmr::core
