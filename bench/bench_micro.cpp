// Micro-benchmarks (google-benchmark) for the simulator's hot paths: the
// event queue (push/pop, cancellation, and the reschedule churn the
// allocator drives), the max-min fair allocator, machine recomputation (one
// class per VM, a shuffle's many members in few classes, the same shuffle
// with a flow leaving and arriving at every recompute, and batch-wide's
// service-heavy mix on an advancing clock, where every member settles), the
// regression fits, one dispatch pass, one dispatch wave over host-capped
// trackers, one slot refill among hundreds of live jobs, and an end-to-end
// small job.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "harness/testbed.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "stats/regression.h"
#include "workload/benchmarks.h"

namespace {

using namespace hybridmr;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.push(static_cast<double>((i * 7919) % n), [] {});
    }
    while (auto e = q.pop()) benchmark::DoNotOptimize(e->time);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

void BM_EventCancellation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    for (int i = 0; i < n; ++i) ids.push_back(q.push(i, [] {}));
    for (int i = 0; i < n; i += 2) q.cancel(ids[i]);
    while (auto e = q.pop()) benchmark::DoNotOptimize(e->time);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventCancellation)->Arg(10000);

// The completion-event churn reallocation drives: n live events, each
// pushed parked at +inf and then advanced to its finish time (a workload
// attaching to a site, then its first recompute). Before each pop come 29
// reschedules that rescale an event's remaining time by up to 10%, 59% of
// them earlier: batch-wide's measured mix of 4.25 M advances and 2.97 M
// postpones per 255 k pops. The popped event's replacement arrives the same
// way, so n stay live. The random choices are drawn before timing starts.
void BM_EventQueueDeferChurn(benchmark::State& state) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr int kDefersPerPop = 29;
  constexpr std::size_t kTable = 1 << 14;  // power of two: indices wrap
  const auto n = static_cast<std::size_t>(state.range(0));
  struct Move {
    std::size_t event;
    double scale;  // new remaining time / old remaining time
  };
  sim::Rng rng(7);
  std::vector<Move> moves(kTable);
  for (Move& m : moves) {
    const double f = rng.uniform(0, 0.1);
    m = {rng.index(n), rng.bernoulli(0.59) ? 1 - f : 1 + f};
  }
  std::vector<double> spans(kTable);
  for (double& s : spans) s = rng.uniform(0.5, 1.5);

  sim::EventQueue q;
  std::vector<sim::EventId> ids(n);
  std::vector<double> times(n);
  std::size_t popped = 0;
  double now = 0;
  std::size_t next_move = 0;
  std::size_t next_span = 0;
  auto arrive = [&](std::size_t i) {
    ids[i] = q.push(kInf, [&popped, i] { popped = i; });
    times[i] = now + spans[next_span++ & (kTable - 1)];
    q.defer(ids[i], times[i]);
  };
  for (std::size_t i = 0; i < n; ++i) arrive(i);
  for (auto _ : state) {
    for (int k = 0; k < kDefersPerPop; ++k) {
      const Move& m = moves[next_move++ & (kTable - 1)];
      times[m.event] = now + (times[m.event] - now) * m.scale;
      q.defer(ids[m.event], times[m.event]);
    }
    auto e = q.pop();
    e->fn();
    now = e->time;
    benchmark::DoNotOptimize(now);
    arrive(popped);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueDeferChurn)->Arg(64)->Arg(512);

// The fill kernel (DemandClasses::fill) over `n` consumers that each stand
// for themselves and ask for CPU alone, through a reused table like a
// site's. Up to 17 distinct demands: /8 levels from the stack table, /64
// and /512 sort.
void BM_Waterfill(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<cluster::DemandClasses::Row> singles(n);
  for (int i = 0; i < n; ++i) singles[i].effective.cpu = 1.0 + (i % 17);
  cluster::DemandClasses classes;
  for (auto _ : state) {
    classes.fill(cluster::Resources{static_cast<double>(n), 0, 0, 0}, singles,
                 nullptr);
    benchmark::DoNotOptimize(singles.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Waterfill)->Arg(8)->Arg(64)->Arg(512);

// The shape of a contended VM-level fill during a shuffle: a source VM
// serving one flow per reducer, with only three distinct demand values, is
// three class rows of n/3 flows each, filled through a reused table like a
// site's. Each flow asks for all four resources; the disk and network
// capacity alternates between 30% and 31% of the total demand, so no two
// consecutive fills see the same inputs.
void BM_WaterfillTied(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double values[] = {2.5, 25.0, 50.0};
  cluster::DemandClasses classes;
  double total = 0;
  for (const double v : values) {
    classes.rows.emplace_back().effective =
        cluster::Resources{v / 100, 16, v, v};
    classes.counts.push_back(static_cast<std::uint32_t>(n / 3));
    total += v * (n / 3);
  }
  bool low = false;
  for (auto _ : state) {
    low = !low;
    const double share = (low ? 0.30 : 0.31) * total;
    classes.fill(cluster::Resources{8, 4096, share, share}, {}, nullptr);
    benchmark::DoNotOptimize(classes.rows.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WaterfillTied)->Arg(48);

void BM_MachineRecompute(benchmark::State& state) {
  const int workloads = static_cast<int>(state.range(0));
  sim::Simulation sim;
  cluster::HybridCluster hc(sim);
  auto* machine = hc.add_machine();
  auto* vm1 = hc.add_vm(*machine);
  auto* vm2 = hc.add_vm(*machine);
  for (int i = 0; i < workloads; ++i) {
    cluster::Resources d;
    d.cpu = 0.3;
    d.disk = 10;
    d.memory = 100;
    (i % 2 == 0 ? vm1 : vm2)
        ->add(std::make_shared<cluster::Workload>(d,
                                                  cluster::Workload::kService));
  }
  for (auto _ : state) {
    // Benchmarking the recompute pass itself; the sanctioned entry points
    // (invalidate/ensure_clean) are covered by BM_RecomputeBurst.
    machine->recompute();  // sim-lint: allow(eager-recompute)
  }
  state.SetItemsProcessed(state.iterations() * workloads);
}
BENCHMARK(BM_MachineRecompute)->Arg(4)->Arg(16)->Arg(64);

// The shape the demand classes target: two VMs, each holding `per_vm`
// finite flows whose disk/net demands take BM_WaterfillTied's three values
// in turn, so each VM fills three classes, every fill is contended, and
// every member still settles, installs and reschedules.
void BM_MachineRecomputeShuffle(benchmark::State& state) {
  const int per_vm = static_cast<int>(state.range(0));
  const double values[] = {2.5, 25.0, 50.0};
  sim::Simulation sim;
  cluster::HybridCluster hc(sim);
  auto* machine = hc.add_machine();
  for (auto* vm : {hc.add_vm(*machine), hc.add_vm(*machine)}) {
    for (int i = 0; i < per_vm; ++i) {
      cluster::Resources d;
      d.cpu = values[i % 3] / 100;
      d.disk = values[i % 3];
      d.net = values[i % 3];
      d.memory = 16;
      vm->add(std::make_shared<cluster::Workload>(d, sim::Duration{100}));
    }
  }
  for (auto _ : state) {
    machine->recompute();  // sim-lint: allow(eager-recompute)
  }
  state.SetItemsProcessed(state.iterations() * 2 * per_vm);
}
BENCHMARK(BM_MachineRecomputeShuffle)->Arg(48);

// The shuffle shape with batch-wide's churn: the classes change at every
// recompute. Each iteration retires the oldest flow of one VM, attaches a
// flow of the next demand value in its place, and drains the recompute
// the two mutations marked (the VMs take turns).
void BM_MachineRecomputeChurn(benchmark::State& state) {
  const int per_vm = static_cast<int>(state.range(0));
  const double values[] = {2.5, 25.0, 50.0};
  sim::Simulation sim;
  cluster::HybridCluster hc(sim);
  auto* machine = hc.add_machine();
  cluster::VirtualMachine* vms[] = {hc.add_vm(*machine), hc.add_vm(*machine)};
  int next = 0;
  auto flow = [&] {
    const double v = values[next++ % 3];
    cluster::Resources d;
    d.cpu = v / 100;
    d.disk = v;
    d.net = v;
    d.memory = 16;
    return std::make_shared<cluster::Workload>(d, sim::Duration{100});
  };
  for (auto* vm : vms) {
    for (int i = 0; i < per_vm; ++i) vm->add(flow());
  }
  sim.flush();
  for (auto _ : state) {
    cluster::VirtualMachine* vm = vms[next % 2];
    vm->remove(vm->members().front().workload);
    vm->add(flow());
    sim.flush();
  }
  state.SetItemsProcessed(state.iterations() * 2 * per_vm);
}
BENCHMARK(BM_MachineRecomputeChurn)->Arg(48);

// The recompute with its settle: the benches above recompute at one
// instant, where the once-per-instant rule skips every settle. Two VMs of
// `per_vm` members each, one in ten finite (an attempt that cannot finish
// within the run) and the rest shuffle services, batch-wide's mix. Each
// iteration moves the clock 1 ms, retires one VM's oldest member, attaches
// one of the same kind in its place, and drains the recompute, so every
// member settles over the elapsed interval (the VMs take turns).
void BM_MachineRecomputeAdvancing(benchmark::State& state) {
  const int per_vm = static_cast<int>(state.range(0));
  const double values[] = {2.5, 25.0, 50.0};
  sim::Simulation sim;
  cluster::HybridCluster hc(sim);
  auto* machine = hc.add_machine();
  cluster::VirtualMachine* vms[] = {hc.add_vm(*machine), hc.add_vm(*machine)};
  std::deque<std::shared_ptr<cluster::Workload>> resident[2];
  int next = 0;
  auto member = [&](bool finite) {
    const double v = values[next++ % 3];
    cluster::Resources d;
    d.cpu = finite ? 0.5 : v / 100;
    d.disk = v;
    d.net = v;
    d.memory = finite ? 200 : 16;
    return std::make_shared<cluster::Workload>(
        d, finite ? sim::Duration{1e9} : cluster::Workload::kService);
  };
  for (int v = 0; v < 2; ++v) {
    for (int i = 0; i < per_vm; ++i) {
      resident[v].push_back(member(i % 10 == 0));
      vms[v]->add(resident[v].back());
    }
  }
  sim.flush();
  int turn = 0;
  for (auto _ : state) {
    sim.run_until(sim.now() + 0.001);
    auto& queue = resident[turn % 2];
    cluster::VirtualMachine* vm = vms[turn++ % 2];
    const std::shared_ptr<cluster::Workload> oldest = queue.front();
    queue.pop_front();
    vm->remove(oldest.get());
    queue.push_back(member(oldest->finite()));
    vm->add(queue.back());
    sim.flush();
  }
  state.SetItemsProcessed(state.iterations() * 2 * per_vm);
}
BENCHMARK(BM_MachineRecomputeAdvancing)->Arg(48);

// A k-mutation burst at one simulated instant — the placement-burst /
// DRM-epoch pattern. Deferred reallocation coalesces the burst into one
// recompute per machine at the drain; eager mode (the pre-coalescing
// behavior) recomputes per mutation. The ratio of the two is the headline
// number scripts/perf_gate.py gates on, because it is hardware-independent.
template <bool kEager>
void BM_RecomputeBurst(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  sim::Simulation sim;
  cluster::HybridCluster hc(sim);
  hc.reallocator().set_eager(kEager);
  auto* machine = hc.add_machine();
  auto* vm1 = hc.add_vm(*machine);
  auto* vm2 = hc.add_vm(*machine);
  std::vector<std::shared_ptr<cluster::Workload>> workloads;
  for (int i = 0; i < burst; ++i) {
    cluster::Resources d;
    d.cpu = 0.3;
    d.disk = 10;
    d.memory = 100;
    auto w =
        std::make_shared<cluster::Workload>(d, cluster::Workload::kService);
    (i % 2 == 0 ? vm1 : vm2)->add(w);
    workloads.push_back(std::move(w));
  }
  cluster::Resources caps;
  for (auto _ : state) {
    // One burst: every workload's caps change at the same instant...
    for (int i = 0; i < burst; ++i) {
      caps = cluster::Resources::unbounded();
      caps.cpu = 0.1 + 0.01 * ((static_cast<int>(state.iterations()) + i) % 7);
      workloads[static_cast<std::size_t>(i)]->set_caps(caps);
    }
    // ...then the event boundary drains the dirty set (no-op when eager).
    sim.flush();
    benchmark::DoNotOptimize(machine->utilization(cluster::ResourceKind::kCpu));
  }
  state.SetItemsProcessed(state.iterations() * burst);
  state.counters["recomputes_per_burst"] =
      static_cast<double>(machine->recompute_count()) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK_TEMPLATE(BM_RecomputeBurst, false)
    ->Name("BM_RecomputeBurstDeferred")
    ->Arg(16)
    ->Arg(64);
BENCHMARK_TEMPLATE(BM_RecomputeBurst, true)
    ->Name("BM_RecomputeBurstEager")
    ->Arg(16)
    ->Arg(64);

void BM_LinearRegressionFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = i;
    y[i] = 3.0 * i + (i % 5);
  }
  for (auto _ : state) {
    auto fit = stats::LinearRegression::fit(x, y);
    benchmark::DoNotOptimize(fit->slope());
  }
}
BENCHMARK(BM_LinearRegressionFit)->Arg(32)->Arg(256);

void BM_PiecewiseFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = i;
    y[i] = i < n / 2 ? 10.0 : 10.0 + 2.0 * (i - n / 2);
  }
  for (auto _ : state) {
    auto fit = stats::PiecewiseLinearRegression::fit(x, y);
    benchmark::DoNotOptimize(fit->breakpoint());
  }
}
BENCHMARK(BM_PiecewiseFit)->Arg(32)->Arg(128);

// One dispatch pass with `range(0)` live jobs: a running attempt is
// requeued (its slot frees) and the dispatch that follows refills the slot.
// Four native trackers hold 8 map slots, so all but a handful of the jobs
// wait with pending maps — the FairScheduler's many-jobs regime. The
// simulation never runs, so the live set stays fixed; the bed is rebuilt
// (untimed) every kPassesPerBed passes: before the requeued tasks' attempt
// lists grow long enough to show up in the timing, and seldom enough that
// the first passes' cold caches on a new bed stay a small share of it.
void BM_DispatchPass(benchmark::State& state) {
  constexpr int kPassesPerBed = 256;
  const int live_jobs = static_cast<int>(state.range(0));
  auto make_bed = [live_jobs] {
    harness::TestBed::Options options;
    options.telemetry = false;
    auto bed = std::make_unique<harness::TestBed>(options);
    bed->add_native_nodes(4);
    for (int i = 0; i < live_jobs; ++i) {
      bed->mr().submit(workload::sort_job().with_input_gb(0.25));
    }
    return bed;
  };
  auto bed = make_bed();
  int passes = 0;
  for (auto _ : state) {
    if (passes == kPassesPerBed) {
      state.PauseTiming();
      bed.reset();
      bed = make_bed();
      passes = 0;
      state.ResumeTiming();
    }
    auto& mr = bed->mr();
    const auto& tracker = *mr.trackers()[static_cast<std::size_t>(passes % 4)];
    mr.requeue(*tracker.running().front(), /*ban_tracker=*/false);
    ++passes;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchPass)->Arg(16)->Arg(128)->Arg(512);

// One dispatch wave on `range(0)` virtual hosts x 2 VMs, where every other
// host runs at its cap of 2 attempts per core. The capped hosts' VMs have 3
// map slots each (4 running between them, so each has a slot free) and
// hold every datanode; the other hosts' VMs have 1 slot, full. 16 live jobs
// keep about 8 maps per host pending. An iteration requeues one attempt on a
// capped host (its slot frees, and the host drops below the cap) and the
// dispatch that follows refills the host: it visits the trackers that can
// launch and picks a map local to them. The bed is rebuilt (untimed) every
// kPassesPerBed passes, like BM_DispatchPass's.
void BM_DispatchWave(benchmark::State& state) {
  constexpr int kPassesPerBed = 256;
  constexpr int kJobs = 16;
  const int hosts = static_cast<int>(state.range(0));
  std::vector<const mapred::TaskTracker*> capped;
  auto make_bed = [hosts, &capped] {
    harness::TestBed::Options options;
    options.telemetry = false;
    options.speculative_execution = false;
    auto bed = std::make_unique<harness::TestBed>(options);
    capped.clear();
    for (int h = 0; h < hosts; ++h) {
      cluster::Machine& host = *bed->add_plain_machines(1).front();
      for (int v = 0; v < 2; ++v) {
        cluster::VirtualMachine* vm = bed->add_plain_vm(host);
        if (h % 2 == 0) {
          bed->hdfs().add_datanode(*vm);
          capped.push_back(bed->mr().add_tracker(*vm, 3, 0));
        } else {
          bed->mr().add_tracker(*vm, 1, 0);
        }
      }
    }
    // 3 running per host on average, 8 pending: one map per 0.125 GB block.
    const double gb = 0.125 * (3 * hosts + 8 * hosts) / kJobs;
    for (int j = 0; j < kJobs; ++j) {
      bed->mr().submit(workload::sort_job().with_input_gb(gb));
    }
    return bed;
  };
  auto bed = make_bed();
  int passes = 0;
  for (auto _ : state) {
    if (passes == kPassesPerBed) {
      state.PauseTiming();
      bed.reset();
      bed = make_bed();
      passes = 0;
      state.ResumeTiming();
    }
    // Capped hosts in rotation; whichever of the host's VMs runs work.
    const std::size_t host =
        static_cast<std::size_t>(passes) % (capped.size() / 2);
    const mapred::TaskTracker* tracker = capped[2 * host];
    if (tracker->running().empty()) tracker = capped[2 * host + 1];
    bed->mr().requeue(*tracker->running().front(), /*ban_tracker=*/false);
    ++passes;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchWave)->Arg(24)->Arg(96);

// One slot refill among `range(0)` live jobs on 24 virtual hosts x 2 VMs,
// every VM a datanode and a tracker: hmrbench many-jobs' shape, where a
// pick walks the fair order over hundreds of live jobs and reads their
// block lists and pending maps. Every job is Pi's 128 one-MB splits, so
// every map slot is busy and most maps stay pending. An iteration requeues
// one running attempt (its slot frees, its job moves down the fair order)
// and the dispatch that follows refills the slot. The bed is rebuilt
// (untimed) every kPassesPerBed passes, like BM_DispatchPass's.
void BM_DispatchManyJobs(benchmark::State& state) {
  constexpr int kPassesPerBed = 256;
  const int live_jobs = static_cast<int>(state.range(0));
  auto make_bed = [live_jobs] {
    harness::TestBed::Options options;
    options.telemetry = false;
    options.speculative_execution = false;
    auto bed = std::make_unique<harness::TestBed>(options);
    bed->add_virtual_nodes(24, 2);
    for (int i = 0; i < live_jobs; ++i) bed->mr().submit(workload::pi_est());
    return bed;
  };
  auto bed = make_bed();
  int passes = 0;
  for (auto _ : state) {
    if (passes == kPassesPerBed) {
      state.PauseTiming();
      bed.reset();
      bed = make_bed();
      passes = 0;
      state.ResumeTiming();
    }
    auto& mr = bed->mr();
    const auto& trackers = mr.trackers();
    const auto& tracker =
        *trackers[static_cast<std::size_t>(passes) % trackers.size()];
    mr.requeue(*tracker.running().front(), /*ban_tracker=*/false);
    ++passes;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchManyJobs)->Arg(128)->Arg(512);

void BM_EndToEndSmallJob(benchmark::State& state) {
  for (auto _ : state) {
    harness::TestBed bed;
    bed.add_native_nodes(4);
    const double jct =
        bed.run_job(workload::sort_job().with_input_gb(0.5));
    benchmark::DoNotOptimize(jct);
  }
}
BENCHMARK(BM_EndToEndSmallJob)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
