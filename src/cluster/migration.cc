#include "cluster/migration.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "telemetry/telemetry.h"

namespace hybridmr::cluster {

MigrationPlan MigrationModel::plan(sim::MegaBytes memory, sim::MBps dirty_rate,
                                   sim::MBps bw) const {
  // The dimensional algebra carries the model: size / rate is a round's
  // duration, rate * duration is the memory dirtied while it ran.
  MigrationPlan p;
  if (memory <= sim::MegaBytes{0} || bw <= sim::MBps{0}) return p;
  sim::MegaBytes to_send = memory;
  while (p.rounds < cal_.migration_max_rounds &&
         to_send > cal_.migration_stop_threshold_mb) {
    const sim::Duration t = to_send / bw;
    p.precopy_seconds += t;
    p.transferred_mb += to_send;
    to_send = dirty_rate * t;
    ++p.rounds;
    // Diverging: dirtying faster than we can send. Give up pre-copying.
    if (dirty_rate >= bw) break;
  }
  // Converged means the final stop-and-copy moves at most the threshold.
  // Both early exits — divergence and the round cap — leave more than that
  // behind and must report non-convergence (the round-cap exit used to slip
  // through as converged).
  if (to_send > cal_.migration_stop_threshold_mb) {
    p.converged = false;
  }
  p.downtime_seconds =
      to_send / bw + sim::Duration{cal_.migration_downtime_overhead_s};
  return p;
}

sim::MBps MigrationModel::dirty_rate_mbps(const VirtualMachine& vm) const {
  sim::MegaBytes active_mb{0};
  for (const auto& m : vm.members()) {
    const Workload& w = *m.workload;
    if (w.paused()) continue;
    active_mb +=
        sim::MegaBytes{std::min(w.demand().memory, w.allocated().memory)};
  }
  return cal_.idle_dirty_rate_mbps +
         cal_.dirty_rate_per_active_mb * active_mb;
}

double unit_mean_lognormal(sim::Rng& rng, double sigma) {
  return std::exp(rng.normal(-0.5 * sigma * sigma, sigma));
}

sim::MBps Migrator::jittered_dirty_rate(const VirtualMachine& vm) {
  // Page-dirtying is bursty; the paper's Fig. 10(c) shows wide per-VM
  // downtime variation. Unit-mean lognormal jitter reproduces that spread
  // without running every migration ~13 % hotter than the calibrated model
  // (the mean of exp(N(0, 0.5))). The jitter draws from its own named
  // stream, so migrations never perturb the main stream's sequence for
  // everyone else.
  const sim::MBps base = model_.dirty_rate_mbps(vm);
  return base * unit_mean_lognormal(sim_.named_rng("cluster.dirty_jitter"),
                                    kDirtyRateJitterSigma);
}

bool Migrator::migrate(VirtualMachine& vm, Machine& dest, DoneFn done) {
  Machine* src = vm.host_machine();
  if (vm.migrating() || src == nullptr || src == &dest) return false;

  const sim::MBps dirty = jittered_dirty_rate(vm);
  const MigrationPlan plan = model_.plan(vm.memory_mb(), dirty,
                                         cal_.migration_bw_mbps);

  auto record = std::make_shared<MigrationRecord>();
  record->vm = vm.name();
  record->from = src->name();
  record->to = dest.name();
  record->started_at = sim_.now();
  record->downtime_seconds = plan.downtime_seconds;
  record->transferred_mb = plan.transferred_mb;
  record->rounds = plan.rounds;

  vm.set_migrating(true);
  if (tel_ != nullptr) {
    tel_->trace.instant(
        sim_.now(), telemetry::EventKind::kMigrationStart, vm.name(),
        record->from,
        {{"to", record->to},
         {"memory_mb", telemetry::json_num(vm.memory_mb().value())},
         {"rounds", telemetry::json_num(record->rounds)}});
  }

  // Pre-copy stream: a network workload on each side sized so that at the
  // nominal migration bandwidth it finishes in plan.precopy_seconds; under
  // network contention it stretches, like real pre-copy does.
  Resources stream_demand;
  stream_demand.net = cal_.migration_bw_mbps.value();
  auto out_stream =
      std::make_shared<Workload>(stream_demand, plan.precopy_seconds);
  auto in_stream =
      std::make_shared<Workload>(stream_demand, plan.precopy_seconds);

  auto flight = std::make_shared<InFlight>();
  flight->record = record;
  flight->vm = &vm;
  flight->src = src;
  flight->dest = &dest;
  flight->out_stream = out_stream;
  flight->in_stream = in_stream;
  flight->done = std::move(done);
  active_.push_back(flight);

  // The flight is alive in active_ until complete() or abort_involving()
  // erases it, so the strong capture cannot outlive the migrator's view.
  // sim-lint: allow(capture-lifetime)
  out_stream->on_complete = [this, flight]() {
    // Pre-copy finished: drop the receive stream, take the downtime.
    if (auto in = flight->in_stream.lock()) {
      if (in->site() != nullptr) in->site()->remove(in.get());
    }
    flight->record->precopy_seconds =
        sim::Duration{sim_.now() - flight->record->started_at};
    flight->vm->set_paused(true);
    flight->in_downtime = true;
    flight->downtime_event = sim_.after(
        flight->record->downtime_seconds,
        // sim-lint: allow(capture-lifetime)
        [this, flight]() { complete(flight); });
  };

  src->add(std::move(out_stream));
  dest.add(std::move(in_stream));
  return true;
}

void Migrator::complete(const std::shared_ptr<InFlight>& flight) {
  const auto& record = flight->record;
  VirtualMachine* vmp = flight->vm;
  Machine* from = vmp->host_machine();
  if (from != nullptr) from->detach_vm(vmp);
  flight->dest->attach_vm(vmp);
  vmp->set_paused(false);
  vmp->set_migrating(false);
  history_.push_back(*record);
  if (tel_ != nullptr) {
    tel_->trace.complete(
        record->started_at, sim_.now() - record->started_at,
        telemetry::EventKind::kMigrationEnd, record->vm, record->from,
        {{"to", record->to},
         {"precopy_s", telemetry::json_num(record->precopy_seconds.value())},
         {"downtime_s", telemetry::json_num(record->downtime_seconds.value())},
         {"transferred_mb",
          telemetry::json_num(record->transferred_mb.value())}});
  }
  DoneFn done = std::move(flight->done);
  drop_flight(flight);
  if (done) done(*record);
}

void Migrator::drop_flight(const std::shared_ptr<InFlight>& flight) {
  active_.erase(std::remove(active_.begin(), active_.end(), flight),
                active_.end());
}

int Migrator::abort_involving(Machine& machine) {
  // Snapshot: aborting mutates active_.
  std::vector<std::shared_ptr<InFlight>> doomed;
  for (const auto& f : active_) {
    if (f->src == &machine || f->dest == &machine) doomed.push_back(f);
  }
  for (const auto& flight : doomed) {
    // Tear the pre-copy streams down without firing their completions.
    if (auto out = flight->out_stream.lock()) {
      out->on_complete = nullptr;
      if (out->site() != nullptr) out->site()->remove(out.get());
    }
    if (auto in = flight->in_stream.lock()) {
      if (in->site() != nullptr) in->site()->remove(in.get());
    }
    if (flight->in_downtime) {
      sim_.cancel(flight->downtime_event);
    } else {
      flight->record->precopy_seconds =
          sim::Duration{sim_.now() - flight->record->started_at};
    }
    // The VM never left its source: roll back to a plain running state.
    flight->vm->set_paused(false);
    flight->vm->set_migrating(false);
    flight->record->aborted = true;
    history_.push_back(*flight->record);
    if (tel_ != nullptr) {
      tel_->trace.instant(sim_.now(), telemetry::EventKind::kMigrationAbort,
                          flight->record->vm, flight->record->from,
                          {{"to", flight->record->to}});
    }
    drop_flight(flight);
  }
  return static_cast<int>(doomed.size());
}

void Migrator::set_telemetry(telemetry::Hub* hub) { tel_ = hub; }

}  // namespace hybridmr::cluster
