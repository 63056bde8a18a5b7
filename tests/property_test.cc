// Property-based tests: invariants that must hold across parameter sweeps
// (TEST_P / INSTANTIATE_TEST_SUITE_P), not just at hand-picked points.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/machine.h"
#include "cluster/migration.h"
#include "harness/testbed.h"
#include "interactive/presets.h"
#include "mapred/bitmap.h"
#include "mapred/engine.h"
#include "mapred/scheduler.h"
#include "sim/event_queue.h"
#include "stats/regression.h"
#include "storage/hdfs.h"
#include "workload/benchmarks.h"

namespace hybridmr {
namespace {

using cluster::Resources;
using cluster::Workload;
using harness::TestBed;

// ------------------------------------------------------- waterfill laws ----

class WaterfillProperty : public ::testing::TestWithParam<int> {};

TEST_P(WaterfillProperty, ConservationAndFairness) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const int n = rng.uniform_int(1, 12);
    std::vector<double> demands(n);
    for (auto& d : demands) d = rng.uniform(0, 10);
    const double capacity = rng.uniform(0.1, 25);
    const auto alloc = cluster::waterfill(capacity, demands);

    double total = 0;
    double min_unsat = 1e300;
    double max_unsat = 0;
    for (int i = 0; i < n; ++i) {
      // Never allocate more than demanded.
      EXPECT_LE(alloc[i], demands[i] + 1e-9);
      EXPECT_GE(alloc[i], -1e-12);
      total += alloc[i];
      if (alloc[i] < demands[i] - 1e-9) {
        min_unsat = std::min(min_unsat, alloc[i]);
        max_unsat = std::max(max_unsat, alloc[i]);
      }
    }
    // Never exceed capacity.
    EXPECT_LE(total, capacity + 1e-9);
    // Work conservation: either everyone is satisfied or capacity is used.
    double demand_total = 0;
    for (double d : demands) demand_total += d;
    if (demand_total > capacity + 1e-9) {
      EXPECT_NEAR(total, capacity, 1e-9);
      // Max-min: all unsatisfied consumers get the same share.
      if (max_unsat > 0) {
        EXPECT_NEAR(min_unsat, max_unsat, 1e-9);
      }
    } else {
      EXPECT_NEAR(total, demand_total, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterfillProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------- grouped waterfill ----

// The fill as it was before equal demands were levelled as one group: sort
// the consumers by demand, then hand each in turn min(demand, remaining /
// unsatisfied). Equal demands get whatever the division chain gives at
// their sorted position, so their grants can differ in the last bits, in
// std::sort's tie order. Kept as the oracle the grouped fill must match to
// rounding.
std::vector<double> reference_waterfill(double capacity,
                                        std::span<const double> demands) {
  const std::size_t n = demands.size();
  std::vector<double> out(n, 0.0);
  if (n == 0 || capacity <= 0) return out;
  double total = 0;
  for (const double d : demands) total += d > 0 ? d : 0.0;
  if (total <= capacity) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = demands[i] > 0 ? demands[i] : 0.0;
    }
  } else {
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return demands[a] < demands[b];
              });

    double remaining = capacity;
    std::size_t unsatisfied = n;
    for (const std::uint32_t idx : order) {
      const double fair = remaining / static_cast<double>(unsatisfied);
      const double got = std::min(demands[idx], fair);
      out[idx] = got < 0 ? 0 : got;
      remaining -= out[idx];
      --unsatisfied;
    }
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct FillCase {
  double capacity = 0;
  std::vector<double> demands;
};

// `n` consumers over `distinct` demand values, each value present, in
// random order; capacity 20-90% of the total demand, so the fill is
// contended.
FillCase tied_case(sim::Rng& rng, int n, int distinct) {
  std::vector<double> values(static_cast<std::size_t>(distinct));
  for (auto& v : values) v = rng.uniform(0.5, 60);
  FillCase c;
  double total = 0;
  for (int i = 0; i < n; ++i) {
    c.demands.push_back(values[static_cast<std::size_t>(i % distinct)]);
    total += c.demands.back();
  }
  rng.shuffle(std::span<double>(c.demands));
  c.capacity = rng.uniform(0.2, 0.9) * total;
  return c;
}

// The count-weighted fill over (value, count) rows, one row per distinct
// demand (by bytes, so NaN, -0.0 and +0.0 each get their own), in random
// order, with some values split over two rows the way members of two demand
// classes can ask for one amount. Returns the number of consumers whose
// expanded-list grant differs from their row's grant in any bit.
std::size_t count_weighted_mismatches(sim::Rng& rng, double capacity,
                                      std::span<const double> demands) {
  const std::vector<double> expanded = cluster::waterfill(capacity, demands);
  std::map<std::uint64_t, std::vector<std::size_t>> consumers_of;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    consumers_of[bits(demands[i])].push_back(i);
  }
  std::vector<std::vector<std::size_t>> rows;
  for (auto& [value_bits, consumers] : consumers_of) {
    if (consumers.size() > 1 && rng.bernoulli(0.3)) {
      const auto split = consumers.begin() +
                         static_cast<std::ptrdiff_t>(
                             1 + rng.index(consumers.size() - 1));
      rows.emplace_back(consumers.begin(), split);
      rows.emplace_back(split, consumers.end());
    } else {
      rows.push_back(std::move(consumers));
    }
  }
  rng.shuffle(std::span<std::vector<std::size_t>>(rows));
  cluster::DemandClasses classes;
  for (const auto& row : rows) {
    classes.rows.emplace_back().effective.cpu = demands[row.front()];
    classes.counts.push_back(static_cast<std::uint32_t>(row.size()));
  }
  classes.fill(Resources{capacity, 0, 0, 0}, {}, nullptr);
  std::size_t mismatched = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const std::size_t i : rows[r]) {
      if (bits(expanded[i]) != bits(classes.rows[r].grant.cpu)) ++mismatched;
    }
  }
  return mismatched;
}

// Checks one fill against the four laws that hold for any demands:
// agreement with the reference sweep, equal grants for equal demands,
// permutation of the grants with the demands, and the count-weighted fill
// of the rows granting what the expanded list grants. Returns the number of
// laws broken, so a caller can tell how many cases fail.
int broken_laws(sim::Rng& rng, const FillCase& c) {
  const std::vector<double> got = cluster::waterfill(c.capacity, c.demands);
  const std::vector<double> ref = reference_waterfill(c.capacity, c.demands);
  const std::size_t n = c.demands.size();
  int broken = 0;

  std::size_t far = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(got[i] - ref[i]) > 1e-12 * std::abs(ref[i])) ++far;
  }
  EXPECT_EQ(far, 0u) << "grants off the reference sweep by > 1e-12";
  broken += far > 0 ? 1 : 0;

  std::map<double, std::uint64_t> grant_of;  // demand -> first grant's bits
  std::size_t unequal = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, fresh] = grant_of.emplace(c.demands[i], bits(got[i]));
    if (!fresh && it->second != bits(got[i])) ++unequal;
  }
  EXPECT_EQ(unequal, 0u) << "equal demands got different grants";
  broken += unequal > 0 ? 1 : 0;

  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  rng.shuffle(std::span<std::size_t>(perm));
  std::vector<double> shuffled(n);
  for (std::size_t i = 0; i < n; ++i) shuffled[i] = c.demands[perm[i]];
  const std::vector<double> moved = cluster::waterfill(c.capacity, shuffled);
  std::size_t unpermuted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (bits(moved[i]) != bits(got[perm[i]])) ++unpermuted;
  }
  EXPECT_EQ(unpermuted, 0u) << "shuffling the demands changed some grant";
  broken += unpermuted > 0 ? 1 : 0;

  const std::size_t weighted =
      count_weighted_mismatches(rng, c.capacity, c.demands);
  EXPECT_EQ(weighted, 0u) << "count-weighted rows differ from the list";
  broken += weighted > 0 ? 1 : 0;
  return broken;
}

class WaterfillGroupedProperty : public ::testing::TestWithParam<int> {};

// The shape of contended fills in a shuffle: 17-64 consumers with 1-4
// distinct demands (the linear-scan buckets).
TEST_P(WaterfillGroupedProperty, FewDistinctDemandsKeepTheLaws) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const FillCase c =
        tied_case(rng, rng.uniform_int(17, 64), rng.uniform_int(1, 4));
    ASSERT_EQ(broken_laws(rng, c), 0) << "trial " << trial;
  }
}

// More distinct values than the linear scan holds: the sort-and-encode
// buckets.
TEST_P(WaterfillGroupedProperty, ManyDistinctDemandsKeepTheLaws) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const FillCase c = tied_case(rng, 512, 17);
    ASSERT_EQ(broken_laws(rng, c), 0) << "trial " << trial;
  }
}

// NaN, negative and zero demands get 0 and leave every other grant exactly
// as if they were not there (the reference's comparator is not a strict
// weak order with NaN, so this law is checked against the fill itself).
TEST_P(WaterfillGroupedProperty, NonPositiveAndNanDemandsAreAbsent) {
  const double junk[] = {std::numeric_limits<double>::quiet_NaN(), -3.5, 0.0,
                         -0.0, -std::numeric_limits<double>::infinity()};
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const bool many = trial % 4 == 0;
    const FillCase c = many ? tied_case(rng, 512, 17)
                            : tied_case(rng, rng.uniform_int(17, 64),
                                        rng.uniform_int(1, 4));
    const std::vector<double> clean = cluster::waterfill(c.capacity, c.demands);
    std::vector<double> mixed;
    std::vector<std::optional<std::size_t>> source;  // nullopt: junk
    for (std::size_t i = 0; i < c.demands.size(); ++i) {
      while (rng.bernoulli(0.3)) {
        mixed.push_back(junk[rng.index(std::size(junk))]);
        source.emplace_back();
      }
      mixed.push_back(c.demands[i]);
      source.emplace_back(i);
    }
    const std::vector<double> got = cluster::waterfill(c.capacity, mixed);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      const double want = source[i] ? clean[*source[i]] : 0.0;
      ASSERT_EQ(bits(got[i]), bits(want))
          << "trial " << trial << " index " << i << " demand " << mixed[i];
    }
    ASSERT_EQ(count_weighted_mismatches(rng, c.capacity, mixed), 0u)
        << "trial " << trial;
  }
}

// DemandClasses::fill levels all four resources in one pass. Random rows
// (1-4 members each) and singles whose demands tie within each resource:
// one resource draws from 9-12 distinct values (past the stack table), the
// others from at most 6; some demands are zero, negative or NaN, and one
// resource has no capacity. Each resource's grants must equal, bit for
// bit, the one-resource fill of its column expanded to one consumer per
// member, and the reference sweep to rounding; a non-positive or NaN
// demand, and every demand on the resource without capacity, gets +0.
TEST_P(WaterfillGroupedProperty, ClassFillLevelsEachResourceAlone) {
  const double junk[] = {std::numeric_limits<double>::quiet_NaN(), -3.5, 0.0,
                         -0.0, -std::numeric_limits<double>::infinity()};
  sim::Rng rng(GetParam());
  cluster::DemandClasses classes;  // reused, like a site's table
  for (int trial = 0; trial < 100; ++trial) {
    const int wide = rng.uniform_int(0, cluster::kNumResources - 1);
    const int starved = rng.uniform_int(0, cluster::kNumResources - 1);
    std::array<std::vector<double>, cluster::kNumResources> pool;
    for (int r = 0; r < cluster::kNumResources; ++r) {
      pool[r].resize(static_cast<std::size_t>(
          r == wide ? rng.uniform_int(9, 12) : rng.uniform_int(1, 6)));
      for (double& v : pool[r]) v = rng.uniform(0.5, 60);
    }
    // The wide resource's first demands cover its whole pool.
    auto draw = [&](int r, std::size_t i) {
      if (r == wide && i < pool[r].size()) return pool[r][i];
      if (rng.bernoulli(0.15)) return junk[rng.index(std::size(junk))];
      return pool[r][rng.index(pool[r].size())];
    };
    const auto n = static_cast<std::size_t>(rng.uniform_int(17, 40));
    classes.rows.assign(n, {});
    classes.counts.clear();
    std::vector<cluster::DemandClasses::Row> singles(rng.index(5));
    for (std::size_t i = 0; i < n + singles.size(); ++i) {
      Resources& d = i < n ? classes.rows[i].effective
                           : singles[i - n].effective;
      for (int r = 0; r < cluster::kNumResources; ++r) {
        d[static_cast<cluster::ResourceKind>(r)] = draw(r, i);
      }
      if (i < n) {
        classes.counts.push_back(
            static_cast<std::uint32_t>(rng.uniform_int(1, 4)));
      }
    }
    Resources capacity;
    for (int r = 0; r < cluster::kNumResources; ++r) {
      const auto kind = static_cast<cluster::ResourceKind>(r);
      double total = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = classes.rows[i].effective[kind];
        if (d > 0) total += d * classes.counts[i];
      }
      for (const auto& single : singles) {
        if (single.effective[kind] > 0) total += single.effective[kind];
      }
      capacity[kind] = r == starved ? 0.0 : rng.uniform(0.2, 1.2) * total;
    }
    classes.fill(capacity, singles, nullptr);

    for (int r = 0; r < cluster::kNumResources; ++r) {
      const auto kind = static_cast<cluster::ResourceKind>(r);
      std::vector<double> column;  // one entry per member, then singles
      std::vector<double> held;    // the grant of the entry's row
      std::vector<double> positive;
      for (std::size_t i = 0; i < n + singles.size(); ++i) {
        const auto& row = i < n ? classes.rows[i] : singles[i - n];
        const std::uint32_t members = i < n ? classes.counts[i] : 1;
        for (std::uint32_t k = 0; k < members; ++k) {
          column.push_back(row.effective[kind]);
          held.push_back(row.grant[kind]);
          if (row.effective[kind] > 0) positive.push_back(row.effective[kind]);
        }
      }
      const std::vector<double> alone =
          cluster::waterfill(capacity[kind], column);
      const std::vector<double> ref =
          reference_waterfill(capacity[kind], positive);
      std::size_t next_positive = 0;
      for (std::size_t i = 0; i < column.size(); ++i) {
        ASSERT_EQ(bits(held[i]), bits(alone[i]))
            << "trial " << trial << " " << cluster::to_string(kind)
            << " consumer " << i << " demand " << column[i];
        if (!(column[i] > 0) || r == starved) {
          ASSERT_EQ(bits(held[i]), bits(0.0))
              << "trial " << trial << " " << cluster::to_string(kind)
              << " consumer " << i << " demand " << column[i];
        }
        if (column[i] > 0) {
          const double want = ref[next_positive++];
          ASSERT_LE(std::abs(held[i] - want), 1e-12 * std::abs(want))
              << "trial " << trial << " " << cluster::to_string(kind)
              << " consumer " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterfillGroupedProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------- event-queue seats ----

// The reschedule contract: EventQueue::defer() moves an event but keeps the
// seq it was created with, so same-time ties pop in creation order however
// often (and in whatever coalescing regime) an event was moved. The model
// is that contract stated directly: a set ordered by (time, creation seq).
// Each operation drives the queue and the model together and reports where
// they disagree. Under HYBRIDMR_AUDIT every queue operation also checks
// heap_matches_live (the heap holds exactly the live events, each at the
// position its slot records).
struct SeatModel {
  SeatModel() = default;
  // The queued handlers hold `this`.
  SeatModel(const SeatModel&) = delete;
  SeatModel& operator=(const SeatModel&) = delete;

  sim::EventQueue q;
  std::set<std::pair<sim::SimTime, std::size_t>> seats;  // (time, seq)
  std::vector<sim::EventId> ids;                         // by creation seq
  std::vector<std::optional<sim::SimTime>> seat_of;      // nullopt: dead
  std::size_t fired = 0;
  std::uint64_t deferred = 0;
  std::uint64_t cancelled = 0;

  std::size_t push(sim::SimTime t) {
    const std::size_t seq = ids.size();
    ids.push_back(q.push(t, [this, seq] { fired = seq; }));
    seat_of.emplace_back(t);
    seats.emplace(t, seq);
    return seq;
  }

  ::testing::AssertionResult defer(std::size_t seq, sim::SimTime t) {
    const bool live = seat_of[seq].has_value();
    if (q.defer(ids[seq], t) != live) {
      return ::testing::AssertionFailure()
             << "defer of seq " << seq << " returned " << !live;
    }
    if (live) {
      seats.erase({*seat_of[seq], seq});
      seats.emplace(t, seq);
      seat_of[seq] = t;
      ++deferred;
    }
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult cancel(std::size_t seq) {
    const bool live = seat_of[seq].has_value();
    if (q.cancel(ids[seq]) != live) {
      return ::testing::AssertionFailure()
             << "cancel of seq " << seq << " returned " << !live;
    }
    if (live) {
      seats.erase({*seat_of[seq], seq});
      seat_of[seq].reset();
      ++cancelled;
    }
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult pop() {
    auto e = q.pop();
    if (e.has_value() == seats.empty()) {
      return ::testing::AssertionFailure()
             << "pop " << (e ? "returned an event" : "returned nothing")
             << " with " << seats.size() << " live in the model";
    }
    if (!e) return ::testing::AssertionSuccess();
    e->fn();
    const auto [time, seq] = *seats.begin();
    seats.erase(seats.begin());
    seat_of[seq].reset();
    if (fired != seq || !sim::same_time(e->time, time) ||
        !(e->id == ids[seq])) {
      return ::testing::AssertionFailure()
             << "popped seq " << fired << " at " << e->time
             << ", model head is seq " << seq << " at " << time
             << " (tie order must follow creation order)";
    }
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult clear() {
    const std::size_t dropped = q.clear();
    if (dropped != seats.size()) {
      return ::testing::AssertionFailure()
             << "clear dropped " << dropped << ", model holds "
             << seats.size();
    }
    cancelled += dropped;
    for (const auto& [time, seq] : seats) seat_of[seq].reset();
    seats.clear();
    return ::testing::AssertionSuccess();
  }

  [[nodiscard]] ::testing::AssertionResult agrees() const {
    const std::optional<sim::SimTime> next = q.next_time();
    if (q.size() != seats.size() || next.has_value() == seats.empty() ||
        (next && !sim::same_time(*next, seats.begin()->first))) {
      return ::testing::AssertionFailure()
             << "queue holds " << q.size() << " events, model "
             << seats.size();
    }
    return ::testing::AssertionSuccess();
  }

  // Pops everything left, then checks the lifetime totals.
  void drain() {
    while (!seats.empty()) ASSERT_TRUE(pop());
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_EQ(q.total_pushed(), ids.size());
    EXPECT_EQ(q.total_deferred(), deferred);
    EXPECT_EQ(q.total_cancelled(), cancelled);
  }
};

// Random push / defer (earlier, later, to +inf) / cancel / pop sequences
// over a few integer times make ties common; every pop must be the model's
// head, and ids that fired or were cancelled must be rejected.
class EventQueueProperty : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueProperty, DeferMatchesOrderedSeatModel) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  sim::Rng rng(GetParam());
  SeatModel m;
  for (int step = 0; step < 4000; ++step) {
    const int op = m.ids.empty() ? 0 : rng.uniform_int(0, 99);
    const sim::SimTime t =
        rng.bernoulli(0.1) ? kInf : static_cast<double>(rng.uniform_int(0, 4));
    if (op < 30) {
      m.push(t);
    } else if (op < 65) {
      ASSERT_TRUE(m.defer(rng.index(m.ids.size()), t)) << "step " << step;
    } else if (op < 75) {
      ASSERT_TRUE(m.cancel(rng.index(m.ids.size()))) << "step " << step;
    } else {
      ASSERT_TRUE(m.pop()) << "step " << step;
    }
    ASSERT_TRUE(m.agrees()) << "step " << step;
  }
  m.drain();
}

// The shapes production runs: a workload's completion is pushed parked at
// +inf and advanced by its first recompute (ExecutionSite::add), sometimes
// only later; a removed workload's event is cancelled right after a
// reschedule moved it; and Simulation::shutdown() clears the queue with
// events in flight, after which the queue keeps serving.
TEST_P(EventQueueProperty, ParkAdvanceCancelClearMatchOrderedSeatModel) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  sim::Rng rng(GetParam());
  SeatModel m;
  for (int step = 0; step < 4000; ++step) {
    const int op = m.ids.empty() ? 0 : rng.uniform_int(0, 99);
    const auto t = static_cast<double>(rng.uniform_int(0, 4));
    if (op < 30) {
      const std::size_t seq = m.push(kInf);
      if (rng.bernoulli(0.8)) {
        ASSERT_TRUE(m.defer(seq, t)) << "step " << step;
      }
    } else if (op < 60) {
      ASSERT_TRUE(m.defer(rng.index(m.ids.size()), t)) << "step " << step;
    } else if (op < 70) {
      const std::size_t seq = rng.index(m.ids.size());
      ASSERT_TRUE(m.defer(seq, t)) << "step " << step;
      ASSERT_TRUE(m.cancel(seq)) << "step " << step;
    } else if (op < 72) {
      ASSERT_TRUE(m.clear()) << "step " << step;
    } else {
      ASSERT_TRUE(m.pop()) << "step " << step;
    }
    ASSERT_TRUE(m.agrees()) << "step " << step;
  }
  m.drain();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------ machine conservation ----

class MachineProperty : public ::testing::TestWithParam<int> {};

TEST_P(MachineProperty, AllocationsNeverExceedCapacity) {
  sim::Simulation sim(GetParam());
  cluster::HybridCluster hc(sim);
  auto* machine = hc.add_machine();
  auto* vm1 = hc.add_vm(*machine);
  auto* vm2 = hc.add_vm(*machine);
  sim::Rng rng(GetParam() * 7 + 1);

  std::vector<cluster::WorkloadPtr> workloads;
  for (int i = 0; i < 9; ++i) {
    Resources d;
    d.cpu = rng.uniform(0, 1.5);
    d.memory = rng.uniform(0, 900);
    d.disk = rng.uniform(0, 70);
    d.net = rng.uniform(0, 70);
    auto w = std::make_shared<Workload>(d, sim::Duration{rng.uniform(5, 50)});
    workloads.push_back(w);
    if (i % 3 == 0) {
      machine->add(w);
    } else if (i % 3 == 1) {
      vm1->add(w);
    } else {
      vm2->add(w);
    }

    Resources total;
    for (const auto& each : workloads) {
      if (each->site() != nullptr) total += each->allocated();
    }
    EXPECT_LE(total.cpu, machine->capacity().cpu + 1e-6);
    EXPECT_LE(total.disk, machine->capacity().disk + 1e-6);
    EXPECT_LE(total.net, machine->capacity().net + 1e-6);
    EXPECT_LE(total.memory, machine->capacity().memory + 1e-6);
  }
  sim.run();
  for (const auto& w : workloads) EXPECT_TRUE(w->done());
}

TEST_P(MachineProperty, SpeedNeverExceedsOne) {
  sim::Simulation sim(GetParam());
  cluster::HybridCluster hc(sim);
  auto* machine = hc.add_machine();
  sim::Rng rng(GetParam() * 13 + 5);
  for (int i = 0; i < 6; ++i) {
    Resources d;
    d.cpu = rng.uniform(0.1, 2.0);
    d.disk = rng.uniform(0, 60);
    auto w = std::make_shared<Workload>(d, sim::Duration{10});
    machine->add(w);
    for (const auto& each : machine->workloads()) {
      EXPECT_LE(each->speed(), 1.0 + 1e-9);
      EXPECT_GE(each->speed(), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineProperty,
                         ::testing::Values(11, 23, 37, 59));

// ------------------------------------ demand classes vs per-member fill ----

// A member's speed as the per-member path rated it: the most-constrained
// grant/demand ratio (the I/O tax weighted by how I/O-bound the raw demand
// is), scaled by memory pressure.
double reference_speed(const Workload& w, const Resources& alloc,
                       double eff_cpu, double eff_io,
                       const cluster::Calibration& cal) {
  if (w.paused()) return 0;
  const Resources& d = w.demand();
  double eff_io_weighted = eff_io;
  const double io_demand = d.disk + d.net;
  if (io_demand > 0 && d.cpu > 0) {
    const double f_io =
        io_demand / (io_demand + d.cpu * cal.hdfs_stream_disk_mbps.value());
    eff_io_weighted = 1.0 - (1.0 - eff_io) * f_io;
  }
  double speed = 1.0;
  if (d.cpu > 0) speed = std::min(speed, alloc.cpu * eff_cpu / d.cpu);
  if (d.disk > 0) {
    speed = std::min(speed, alloc.disk * eff_io_weighted / d.disk);
  }
  if (d.net > 0) speed = std::min(speed, alloc.net * eff_io_weighted / d.net);
  if (d.memory > 0) {
    speed *= cluster::memory_pressure_factor(alloc.memory / d.memory, cal);
  }
  return speed;
}

// Per-resource fill of `capacity` over `demands`, one consumer each.
std::vector<Resources> fill_each(const Resources& capacity,
                                 const std::vector<Resources>& demands) {
  std::vector<Resources> grants(demands.size());
  for (int r = 0; r < cluster::kNumResources; ++r) {
    const auto kind = static_cast<cluster::ResourceKind>(r);
    std::vector<double> column;
    for (const Resources& d : demands) column.push_back(d[kind]);
    const std::vector<double> out = cluster::waterfill(capacity[kind], column);
    for (std::size_t i = 0; i < out.size(); ++i) grants[i][kind] = out[i];
  }
  return grants;
}

struct MemberExpect {
  Resources alloc;
  double speed = 0;
  sim::SimTime completion = 0;  // finite members only
};

struct ReferenceAllocation {
  std::map<const Workload*, MemberExpect> members;
  Resources allocated_total;  // summed in consumer order
};

// The recompute as it was before demand classes, member by member: fill
// each resource across the native members and the VMs, rate every native
// member, then inside each VM fill its grant across its members and rate
// each with the VM's taxes. Kept as the oracle the class fill must match
// bit for bit. Reads the state a recompute at the current instant just
// settled, so it must run right after one.
ReferenceAllocation reference_distribute(cluster::Machine& m) {
  const auto& cal = m.calibration();
  const sim::SimTime now = m.simulation().now();
  const auto& natives = m.workloads();
  const auto& vms = m.vms();
  std::vector<Resources> demands;
  for (const auto& w : natives) {
    demands.push_back(m.powered() ? w->effective_demand() : Resources{});
  }
  for (const auto* vm : vms) {
    demands.push_back(m.powered() ? vm->aggregate_demand() : Resources{});
  }
  const std::vector<Resources> grants = fill_each(m.capacity(), demands);

  ReferenceAllocation ref;
  auto expect = [&](const cluster::WorkloadPtr& w, const Resources& alloc,
                    double speed) {
    MemberExpect e{alloc, w->done() ? 0 : speed, w->completion_time};
    if (w->finite() && !w->done()) {
      e.completion = e.speed <= 0
                         ? std::numeric_limits<double>::infinity()
                         : now + (w->remaining() / e.speed).value();
    }
    ref.members[w.get()] = e;
  };
  for (std::size_t i = 0; i < natives.size(); ++i) {
    expect(natives[i], grants[i],
           reference_speed(*natives[i], grants[i], 1.0, 1.0, cal));
  }
  int active_io_vms = 0;
  for (std::size_t j = 0; j < vms.size(); ++j) {
    const Resources& d = demands[natives.size() + j];
    if (d.disk + d.net > 1.0) ++active_io_vms;
  }
  for (std::size_t j = 0; j < vms.size(); ++j) {
    const cluster::VirtualMachine& vm = *vms[j];
    const double eff_cpu = vm.cpu_efficiency();
    const double eff_io = vm.io_efficiency(active_io_vms);
    const double migration_factor =
        vm.migrating() ? 1.0 - cal.migration_guest_slowdown : 1.0;
    std::vector<Resources> member_demands;
    for (const auto& w : vm.workloads()) {
      member_demands.push_back(w->effective_demand());
    }
    const std::vector<Resources> member_grants =
        fill_each(grants[natives.size() + j], member_demands);
    for (std::size_t i = 0; i < member_grants.size(); ++i) {
      const auto& w = vm.workloads()[i];
      double speed =
          vm.paused()
              ? 0.0
              : reference_speed(*w, member_grants[i], eff_cpu, eff_io, cal);
      speed *= migration_factor;
      expect(w, member_grants[i], speed);
    }
  }
  for (const Resources& g : grants) ref.allocated_total += g;
  return ref;
}

bool same_bytes(const Resources& a, const Resources& b) {
  return bits(a.cpu) == bits(b.cpu) && bits(a.memory) == bits(b.memory) &&
         bits(a.disk) == bits(b.disk) && bits(a.net) == bits(b.net);
}

// What a demand class is keyed on: the raw and effective demand's bytes
// and the pause flag.
std::array<std::uint64_t, 9> class_key(const Workload& w) {
  const Resources& d = w.demand();
  const Resources& e = w.effective_demand();
  return {bits(d.cpu),    bits(d.memory), bits(d.disk),
          bits(d.net),    bits(e.cpu),    bits(e.memory),
          bits(e.disk),   bits(e.net),    w.paused() ? 1u : 0u};
}

// Random hosts of native members and 1-3 VMs whose members draw from at
// most 4 demand vectors: up to 3 that differ only above a shared cpu cap,
// so capped members of different vectors share one effective demand but
// not one speed, and sometimes a zero demand. Members pause and resume,
// caps come and go, demands move to another vector, a VM pauses, another
// migrates, a host powers off, members finish and arrive; one VM holds
// more than 8 demand classes. Beside them, one host with three VMs
// exercises the standing class table: a steady VM whose classes never
// change while its grant moves (its sibling's demands do), and a capped
// VM whose grant never moves while its members leave, one of its classes
// empties and a new class takes the freed row. After every round each
// host is recomputed, and every member's grant, speed and finish time,
// and each machine's utilization, must equal the per-member reference's
// bit for bit.
class DemandClassProperty : public ::testing::TestWithParam<int> {};

TEST_P(DemandClassProperty, ClassFillMatchesPerMemberReference) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  // The re-keys and the standing-table host draw from their own stream, so
  // the random hosts are built from the same draws as before they were
  // added (later rounds differ once a re-key moves a finish time).
  sim::Rng side(static_cast<std::uint64_t>(GetParam()) + 1000);
  sim::Simulation sim(static_cast<std::uint64_t>(GetParam()));
  cluster::HybridCluster hc(sim);

  struct Host {
    cluster::Machine* machine = nullptr;
    std::vector<cluster::VirtualMachine*> vms;
    std::vector<cluster::ExecutionSite*> sites;  // the machine, then VMs
    std::vector<Resources> vectors;
    Resources cap = Resources::unbounded();  // cpu under every nonzero vector
    std::vector<cluster::WorkloadPtr> members;
  };
  std::vector<Host> hosts(4);
  auto add_member = [&](Host& h, cluster::ExecutionSite& site) {
    const Resources& d = h.vectors[rng.index(h.vectors.size())];
    const sim::Duration work = rng.bernoulli(0.1)
                                   ? Workload::kService
                                   : sim::Duration{rng.uniform(5, 60)};
    auto w = std::make_shared<Workload>(d, work);
    if (rng.bernoulli(0.4)) w->set_caps(h.cap);
    if (rng.bernoulli(0.15)) w->set_paused(true);
    site.add(w);
    h.members.push_back(w);
  };
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    Host& host = hosts[h];
    host.machine = hc.add_machine();
    host.sites.push_back(host.machine);
    for (int v = rng.uniform_int(1, 3); v > 0; --v) {
      host.vms.push_back(hc.add_vm(*host.machine));
      host.sites.push_back(host.vms.back());
    }
    Resources base{rng.uniform(0.2, 1.0), rng.uniform(50, 400),
                   rng.uniform(5, 60), rng.uniform(0, 60)};
    for (int k = rng.uniform_int(1, 3); k > 0; --k) {
      host.vectors.push_back(base);
      base.cpu *= rng.uniform(1.1, 1.6);
    }
    // A pure delay: only the pause flag tells its paused members (speed 0)
    // from its running ones (speed 1).
    if (rng.bernoulli(0.5)) host.vectors.emplace_back();
    host.cap.cpu = 0.8 * host.vectors.front().cpu;
    for (std::size_t s = 0; s < host.sites.size(); ++s) {
      for (int k = rng.uniform_int(s == 0 ? 0 : 3, s == 0 ? 6 : 20); k > 0;
           --k) {
        add_member(host, *host.sites[s]);
      }
    }
  }
  // Many classes: one VM with a service member per extra demand vector
  // (never finishing, so the site keeps them).
  constexpr std::size_t kManyClasses = 8;
  cluster::VirtualMachine* wide = hosts[0].vms.front();
  const std::size_t extra = kManyClasses + 1 + rng.index(3);
  for (std::size_t k = 0; k < extra; ++k) {
    wide->add(std::make_shared<Workload>(
        Resources{0.1, 64, 2.0 + static_cast<double>(k), 1.0},
        Workload::kService));
  }

  // The standing-table host. The steady VM's service members ask for more
  // disk than the host has, so its disk grant is what its sibling leaves.
  Host table;
  table.machine = hc.add_machine();
  table.sites.push_back(table.machine);
  for (int v = 0; v < 3; ++v) {
    table.vms.push_back(hc.add_vm(*table.machine));
    table.sites.push_back(table.vms.back());
  }
  cluster::VirtualMachine* steady = table.vms[0];
  cluster::VirtualMachine* sibling = table.vms[1];
  cluster::VirtualMachine* capped = table.vms[2];
  auto add_service = [&](cluster::ExecutionSite& site, const Resources& d) {
    auto w = std::make_shared<Workload>(d, Workload::kService);
    site.add(w);
    table.members.push_back(w);
  };
  for (int k = side.uniform_int(4, 6); k > 0; --k) {
    add_service(*steady, Resources{0.1, 64, side.bernoulli(0.5) ? 30.0 : 45.0,
                                   2.0});
  }
  auto sibling_demand = [&] {
    return Resources{0.1, 64, side.uniform(2, 18), 2.0};
  };
  for (int k = 0; k < 2; ++k) add_service(*sibling, sibling_demand());
  // The capped VM's caps sit below its members' total on every resource,
  // so its aggregate demand, and with it its grant, stays put while its
  // members leave. Its first member is the only one of its class.
  capped->set_caps(Resources{0.2, 200, 10, 5});
  add_service(*capped, Resources{0.05, 32, 4, 1});
  for (int k = 0; k < 9; ++k) add_service(*capped, Resources{0.1, 100, 8, 3});

  int shared_effective = 0;  // capped pairs: one effective demand, two raw
  int many_classes = 0;      // checks of a site with many classes
  int rekeyed = 0;           // set_demand calls that moved a member's class
  int grant_moved = 0;       // rounds the steady VM's disk grant moved
  int checked = 0;
  auto check = [&](Host& host, int round) {
    host.machine->invalidate();
    host.machine->ensure_clean();
    const ReferenceAllocation ref = reference_distribute(*host.machine);
    for (int r = 0; r < cluster::kNumResources; ++r) {
      const auto kind = static_cast<cluster::ResourceKind>(r);
      const double cap = host.machine->capacity()[kind];
      const double want = cap > 0 ? ref.allocated_total[kind] / cap : 0;
      EXPECT_EQ(bits(host.machine->utilization(kind)), bits(want))
          << "round " << round << " " << host.machine->name() << " "
          << cluster::to_string(kind);
    }
    for (cluster::ExecutionSite* site : host.sites) {
      std::set<std::array<std::uint64_t, 9>> keys;
      const auto& ws = site->workloads();
      for (std::size_t i = 0; i < ws.size(); ++i) {
        const Workload& w = *ws[i];
        const MemberExpect& e = ref.members.at(&w);
        ++checked;
        for (int r = 0; r < cluster::kNumResources; ++r) {
          const auto kind = static_cast<cluster::ResourceKind>(r);
          EXPECT_EQ(bits(w.allocated()[kind]), bits(e.alloc[kind]))
              << "round " << round << " " << site->name() << " member " << i
              << " " << cluster::to_string(kind);
        }
        EXPECT_EQ(bits(w.speed()), bits(e.speed))
            << "round " << round << " " << site->name() << " member " << i;
        EXPECT_EQ(bits(w.completion_time), bits(e.completion))
            << "round " << round << " " << site->name() << " member " << i;
        keys.insert(class_key(w));
        for (std::size_t j = 0; j < i; ++j) {
          const Workload& o = *ws[j];
          if (!w.paused() && !o.paused() &&
              same_bytes(w.effective_demand(), o.effective_demand()) &&
              !same_bytes(w.demand(), o.demand())) {
            ++shared_effective;
          }
        }
      }
      if (keys.size() > kManyClasses) ++many_classes;
    }
  };

  sim::SimTime t = 0;
  double steady_disk = -1;
  for (int round = 0; round < 8; ++round) {
    t += rng.uniform(1, 8);
    sim.run_until(t);
    for (Host& host : hosts) {
      for (auto* vm : host.vms) {
        if (rng.bernoulli(0.25)) vm->set_paused(!vm->paused());
        if (rng.bernoulli(0.25)) vm->set_migrating(!vm->migrating());
      }
      if (rng.bernoulli(0.2)) {
        host.machine->set_powered(!host.machine->powered());
      }
      for (int k = rng.uniform_int(0, 3); k > 0; --k) {
        add_member(host, *host.sites[rng.index(host.sites.size())]);
      }
    }
    for (Host& host : hosts) {
      for (const auto& w : host.members) {
        if (w->site() == nullptr) continue;
        if (rng.bernoulli(0.1)) w->set_paused(!w->paused());
        if (rng.bernoulli(0.1)) {
          Resources cap = Resources::unbounded();
          if (rng.bernoulli(0.5)) cap.cpu = host.cap.cpu * 0.5;
          w->set_caps(cap);
        }
        if (side.bernoulli(0.1)) {
          const auto before = class_key(*w);
          w->set_demand(host.vectors[side.index(host.vectors.size())]);
          if (class_key(*w) != before) ++rekeyed;
        }
      }
    }
    // The steady VM's classes stay; its sibling's demands move.
    for (const auto& w : sibling->workloads()) w->set_demand(sibling_demand());
    // The capped VM loses a member every round. At round 2 its first
    // class empties (its row is freed, not the last one), and at round 3
    // a member of a new class takes that row.
    if (round == 2) {
      capped->remove(capped->workloads().front().get());
    } else {
      capped->remove(capped->workloads().back().get());
    }
    if (round == 3) add_service(*capped, Resources{0.08, 48, 6, 2});

    for (Host& host : hosts) check(host, round);
    check(table, round);
    const double disk = steady->workloads().front()->allocated().disk;
    if (steady_disk >= 0 && bits(disk) != bits(steady_disk)) ++grant_moved;
    steady_disk = disk;
  }
  EXPECT_GT(checked, 200);
  EXPECT_GT(shared_effective, 0);
  EXPECT_GT(many_classes, 0);
  EXPECT_GT(rekeyed, 0);
  EXPECT_GT(grant_moved, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DemandClassProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------- bitmaps vs an ordered set ----

// The dispatch indexes' Bitmap and FairOrder against a std::set reference
// of (count, id) pairs, whose order is the fair order FairScheduler walks:
// seeded random inserts, erases, +-1 re-keys and next-at-or-after queries.
// The id range widens as the run goes, so the words grow mid-run, and the
// queries start at, beside and between 64-bit word boundaries.
class BitmapProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitmapProperty, MatchesOrderedSetReference) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  mapred::FairOrder order;
  mapred::Bitmap ids;                       // the ids in `order`
  std::set<std::pair<int, int>> reference;  // (count, id)
  std::map<int, int> count_of;              // id -> count
  const auto some_member = [&] {
    return std::next(count_of.begin(),
                     static_cast<std::ptrdiff_t>(rng.index(count_of.size())));
  };
  const auto next_in_reference = [&](std::uint32_t pos) {
    const auto it = count_of.lower_bound(static_cast<int>(pos));
    return it == count_of.end() ? mapred::Bitmap::kNone
                                : static_cast<std::uint32_t>(it->first);
  };
  int queries = 0;
  int rekeys = 0;
  int walks = 0;
  for (int step = 0; step < 6000; ++step) {
    const int span = 48 + step / 12;  // 48 .. 547: ids reach word 8
    const int op = rng.uniform_int(0, 9);
    if (op <= 2 || count_of.empty()) {  // insert (a present id: no-op)
      const int id = rng.uniform_int(0, span - 1);
      ids.insert(static_cast<std::uint32_t>(id));
      if (count_of.contains(id)) continue;
      const int count = rng.uniform_int(0, 6);
      order.insert(static_cast<std::uint32_t>(id), count);
      reference.emplace(count, id);
      count_of[id] = count;
    } else if (op <= 4) {  // erase (an absent id: no-op for the bitmap)
      if (rng.bernoulli(0.2)) {
        const int id = rng.uniform_int(0, span + 64);
        if (!count_of.contains(id)) {
          ids.erase(static_cast<std::uint32_t>(id));
          continue;
        }
      }
      const auto it = some_member();
      const auto [id, count] = *it;
      order.erase(static_cast<std::uint32_t>(id), count);
      ids.erase(static_cast<std::uint32_t>(id));
      reference.erase({count, id});
      count_of.erase(it);
    } else if (op <= 6) {  // re-key by +-1, as a launch or a release does
      const auto it = some_member();
      const int from = it->second;
      const int to = from == 0 || rng.bernoulli(0.5) ? from + 1 : from - 1;
      order.move(static_cast<std::uint32_t>(it->first), from, to);
      reference.erase({from, it->first});
      reference.emplace(to, it->first);
      it->second = to;
      ++rekeys;
    } else {  // next at or after a position near or past a word boundary
      const int word = rng.uniform_int(0, span / 64 + 1);
      const int pos =
          rng.bernoulli(0.5)
              ? std::max(0, 64 * word + rng.uniform_int(-2, 2))
              : rng.uniform_int(0, span + 64);
      const auto p = static_cast<std::uint32_t>(pos);
      ASSERT_EQ(ids.next(p), next_in_reference(p))
          << "step " << step << ", pos " << pos;
      ++queries;
    }
    ASSERT_EQ(ids.size(), count_of.size()) << "step " << step;
    ASSERT_EQ(ids.empty(), count_of.empty()) << "step " << step;
    ASSERT_EQ(order.size(), reference.size()) << "step " << step;
    if (step % 25 != 0) continue;
    // The whole walk, in (count, id) order, and membership under each key.
    std::vector<std::uint32_t> want;
    for (const auto& [count, id] : reference) {
      want.push_back(static_cast<std::uint32_t>(id));
      ASSERT_TRUE(order.contains(static_cast<std::uint32_t>(id), count));
      ASSERT_FALSE(order.contains(static_cast<std::uint32_t>(id), count + 1));
      ASSERT_TRUE(ids.contains(static_cast<std::uint32_t>(id)));
    }
    // A walk that visits more members than there are stops (a next() that
    // returns its own position would walk forever).
    std::vector<std::uint32_t> walked;
    const int overrun = 0;
    const int* stopped = order.find_first([&](std::uint32_t id) -> const int* {
      walked.push_back(id);
      return walked.size() > want.size() ? &overrun : nullptr;
    });
    EXPECT_EQ(stopped, nullptr) << "step " << step << ": walk overran";
    ASSERT_EQ(walked, want) << "step " << step;
    // A walk stops at the first hit.
    if (!want.empty()) {
      const std::uint32_t target = want[rng.index(want.size())];
      std::size_t visited = 0;
      const std::uint32_t* hit =
          order.find_first([&](std::uint32_t id) -> const std::uint32_t* {
            ++visited;
            return id == target ? &target : nullptr;
          });
      EXPECT_EQ(hit, &target);
      EXPECT_EQ(visited, static_cast<std::size_t>(
                             std::find(want.begin(), want.end(), target) -
                             want.begin()) + 1);
    }
    ++walks;
  }
  // Every id is visited in order once more by next(), end to end.
  std::vector<int> by_next;
  for (std::uint32_t i = ids.next(0);
       i != mapred::Bitmap::kNone && by_next.size() <= count_of.size();
       i = ids.next(i + 1)) {
    by_next.push_back(static_cast<int>(i));
  }
  std::vector<int> members;
  for (const auto& [id, count] : count_of) members.push_back(id);
  EXPECT_EQ(by_next, members);
  EXPECT_GT(queries, 500);
  EXPECT_GT(rekeys, 500);
  EXPECT_GT(walks, 200);
  ASSERT_FALSE(count_of.empty());
  EXPECT_GT(count_of.rbegin()->first, 256) << "ids never reached word 4";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------- locality pick vs scanning oracle ----

// The scanning pick, the oracle the indexed TaskScheduler::pick_from_job
// must match pick for pick: it visits every usable (pending, not banned)
// task and derives each map's locality from its replica list. The first
// node-local map wins at once, else the first host-local one, else,
// outside the locality round, the first usable task.
mapred::Task* reference_pick_from_job(mapred::Job& job, mapred::TaskType type,
                                      mapred::TaskTracker& tracker,
                                      const storage::Hdfs& hdfs,
                                      bool locality_only) {
  const auto& tasks =
      type == mapred::TaskType::kMap ? job.maps() : job.reduces();
  mapred::Task* host_local = nullptr;
  mapred::Task* fallback = nullptr;
  for (const auto& t : tasks) {
    if (!t->pending()) continue;
    if (t->banned_trackers.contains(&tracker)) continue;
    if (type == mapred::TaskType::kMap) {
      auto loc = storage::Locality::kRemote;
      for (const storage::DataNode* dn :
           hdfs.replicas(job.input_file(), t->index())) {
        if (dn->site() == &tracker.site()) {
          loc = storage::Locality::kNodeLocal;
          break;
        }
        if (storage::same_host(*dn->site(), tracker.site())) {
          loc = storage::Locality::kHostLocal;
        }
      }
      if (loc == storage::Locality::kNodeLocal) return t.get();
      if (loc == storage::Locality::kHostLocal && host_local == nullptr) {
        host_local = t.get();
      }
    }
    if (fallback == nullptr) fallback = t.get();
    if (type == mapred::TaskType::kReduce) break;
  }
  if (host_local != nullptr) return host_local;
  if (locality_only && type == mapred::TaskType::kMap) return nullptr;
  return fallback;
}

// Exposes the engine's pick (a protected static of every scheduler).
struct PickProbe : mapred::TaskScheduler {
  using TaskScheduler::pick_from_job;
};

class LocalityPickProperty : public ::testing::TestWithParam<int> {};

TEST_P(LocalityPickProperty, IndexedPickMatchesScanningOracle) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  TestBed::Options options;
  options.seed = static_cast<std::uint64_t>(GetParam());
  options.telemetry = false;
  TestBed bed(options);
  bed.add_native_nodes(rng.uniform_int(1, 3));
  const int vhosts = rng.uniform_int(1, 3);
  for (int h = 0; h < vhosts; ++h) {
    bed.add_virtual_nodes(1, rng.uniform_int(1, 3));
  }
  // A split host: a datanode-only VM whose blocks are host-local to the
  // tracker-only VMs beside it and node-local to nobody.
  bed.add_split_nodes(1, rng.uniform_int(1, 2));

  auto& mr = bed.mr();
  const int jobs = rng.uniform_int(3, 6);
  for (int j = 0; j < jobs; ++j) {
    const double gb = 0.125 * rng.uniform_int(4, 32);
    bed.sim().at(rng.uniform(0, 10), [&mr, gb] {
      mr.submit(workload::sort_job().with_input_gb(gb));
    });
  }
  // One tracker VM leaves its host mid-run (frozen, like an IPS detach):
  // from then on it has no host-local sites at all.
  std::vector<cluster::VirtualMachine*> tracker_vms;
  for (const auto& tr : mr.trackers()) {
    if (tr->site().is_virtual()) {
      tracker_vms.push_back(static_cast<cluster::VirtualMachine*>(&tr->site()));
    }
  }
  cluster::VirtualMachine* detached =
      tracker_vms[rng.index(tracker_vms.size())];
  bed.sim().at(rng.uniform(5, 15), [detached] {
    detached->host_machine()->detach_vm(detached);
  });
  bed.run_until(rng.uniform(20, 40));
  ASSERT_EQ(detached->host_machine(), nullptr);

  // Random bans on the unfinished tasks of the live jobs.
  for (const auto& job : mr.jobs()) {
    if (!job->live()) continue;
    for (const auto* tasks : {&job->maps(), &job->reduces()}) {
      for (const auto& t : *tasks) {
        if (t->completed() || !rng.bernoulli(0.3)) continue;
        for (int k = rng.uniform_int(1, 2); k > 0; --k) {
          t->banned_trackers.insert(
              mr.trackers()[rng.index(mr.trackers().size())].get());
        }
      }
    }
  }

  int node_local = 0;
  int host_local = 0;
  int mismatches = 0;
  auto check_all_picks = [&](const char* when) {
    for (const auto& tr : mr.trackers()) {
      for (const auto& job : mr.jobs()) {
        if (!job->live()) continue;
        for (const auto type : {mapred::TaskType::kMap,
                                mapred::TaskType::kReduce}) {
          for (const bool locality_only : {true, false}) {
            mapred::Task* want = reference_pick_from_job(
                *job, type, *tr, bed.hdfs(), locality_only);
            mapred::Task* got = PickProbe::pick_from_job(
                *job, type, *tr, bed.hdfs(), locality_only);
            if (got != want) ++mismatches;
            EXPECT_EQ(got, want)
                << when << ": tracker " << tr->site().name() << ", job "
                << job->id()
                << (type == mapred::TaskType::kMap ? " map" : " reduce")
                << (locality_only ? ", locality round" : ", any round");
            if (want == nullptr || !locality_only ||
                type != mapred::TaskType::kMap) {
              continue;
            }
            const auto on_site =
                bed.hdfs().blocks_on(job->input_file(), tr->site());
            const bool local = std::binary_search(
                on_site.begin(), on_site.end(),
                static_cast<std::uint32_t>(want->index()));
            ++(local ? node_local : host_local);
          }
        }
      }
    }
  };
  check_all_picks("mid-run");

  // Replica moves: a crash (no surviving source on the dead node) and a
  // decommission, each on a datanode that also runs a tracker.
  std::vector<cluster::ExecutionSite*> dn_trackers;
  for (const auto& tr : mr.trackers()) {
    if (bed.hdfs().datanode_on(&tr->site()) != nullptr) {
      dn_trackers.push_back(&tr->site());
    }
  }
  ASSERT_GE(dn_trackers.size(), 2u);
  const std::size_t crashed = rng.index(dn_trackers.size());
  ASSERT_EQ(bed.hdfs().crash_datanodes({dn_trackers[crashed]}), 1);
  check_all_picks("after crash_datanodes");
  dn_trackers.erase(dn_trackers.begin() +
                    static_cast<std::ptrdiff_t>(crashed));
  ASSERT_TRUE(bed.hdfs().remove_datanode(
      *dn_trackers[rng.index(dn_trackers.size())]));
  check_all_picks("after remove_datanode");

  EXPECT_EQ(mismatches, 0);
  // The picks exercised both locality tiers.
  EXPECT_GT(node_local, 0);
  EXPECT_GT(host_local, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalityPickProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------ job monotonics ----

class ClusterSizeMonotonic
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ClusterSizeMonotonic, MoreNodesNeverMuchSlower) {
  const auto [small_n, large_n] = GetParam();
  TestBed small;
  small.add_native_nodes(small_n);
  const double slow = small.run_job(workload::sort_job().with_input_gb(2));
  TestBed large;
  large.add_native_nodes(large_n);
  const double fast = large.run_job(workload::sort_job().with_input_gb(2));
  // JCT is (weakly) decreasing in cluster size, modulo wave effects.
  EXPECT_LE(fast, slow * 1.05);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ClusterSizeMonotonic,
    ::testing::Values(std::make_pair(2, 4), std::make_pair(4, 8),
                      std::make_pair(8, 16)));

class DataSizeMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(DataSizeMonotonic, MoreDataTakesLonger) {
  const double gb = GetParam();
  TestBed a;
  a.add_native_nodes(4);
  const double small = a.run_job(workload::sort_job().with_input_gb(gb));
  TestBed b;
  b.add_native_nodes(4);
  const double large =
      b.run_job(workload::sort_job().with_input_gb(gb * 2));
  EXPECT_GT(large, small);
  // Fig. 5(d): roughly linear in data size.
  EXPECT_LT(large, small * 3.0);
  EXPECT_GT(large, small * 1.4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DataSizeMonotonic,
                         ::testing::Values(1.0, 2.0, 4.0));

// -------------------------------------------------------- determinism ----

class Determinism : public ::testing::TestWithParam<const char*> {};

TEST_P(Determinism, SameSeedSameResult) {
  auto run_once = [&]() {
    TestBed::Options o;
    o.seed = 77;
    TestBed bed(o);
    bed.add_virtual_nodes(4, 2);
    return bed.run_job(workload::benchmark(GetParam()).with_input_gb(1));
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, Determinism,
                         ::testing::Values("sort", "kmeans", "wcount",
                                           "distgrep"));

// ------------------------------------------------- benchmark lifecycle ----

class BenchmarkLifecycle : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchmarkLifecycle, EveryTaskCompletesExactlyOnce) {
  TestBed bed;
  bed.add_native_nodes(4);
  auto spec = workload::benchmark(GetParam());
  if (spec.input_gb > 2) spec = spec.with_input_gb(1.0);
  mapred::Job* job = bed.mr().submit(spec);
  bed.sim().run();
  ASSERT_TRUE(job->finished());
  EXPECT_GT(job->jct(), 0);
  for (const auto& t : job->maps()) {
    EXPECT_TRUE(t->completed());
    EXPECT_GT(t->duration().value(), 0);
    int finished = 0;
    for (const auto& a : t->attempts()) {
      if (a->finished()) ++finished;
      EXPECT_FALSE(a->running());
    }
    EXPECT_EQ(finished, 1);  // exactly one winner
  }
  for (const auto& t : job->reduces()) EXPECT_TRUE(t->completed());
  // Conservation of data: at least the input was read.
  EXPECT_GE(bed.hdfs().bytes_read_local_mb() +
                bed.hdfs().bytes_read_remote_mb(),
            0.9 * spec.input_mb() * 0.15);  // at least the head fetches
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, BenchmarkLifecycle,
                         ::testing::Values("twitter", "wcount", "piest",
                                           "distgrep", "sort", "kmeans"));

// ----------------------------------------------------- migration sweep ----

class MigrationMemorySweep : public ::testing::TestWithParam<double> {};

TEST_P(MigrationMemorySweep, PrecopyMonotoneInMemory) {
  const cluster::MigrationModel model(cluster::Calibration::standard());
  const double mb = GetParam();
  const auto smaller = model.plan(sim::MegaBytes{mb}, sim::MBps{1.0}, sim::MBps{10});
  const auto larger = model.plan(sim::MegaBytes{mb * 2}, sim::MBps{1.0}, sim::MBps{10});
  EXPECT_GT(larger.precopy_seconds, smaller.precopy_seconds);
  EXPECT_GT(smaller.precopy_seconds.value(), 0);
  EXPECT_TRUE(smaller.converged);
}

INSTANTIATE_TEST_SUITE_P(Memories, MigrationMemorySweep,
                         ::testing::Values(256.0, 512.0, 1024.0, 2048.0));

// ----------------------------------------------- interactive monotonic ----

class ClientSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClientSweep, ThroughputScalesWithClientsUntilSaturation) {
  sim::Simulation sim(3);
  cluster::HybridCluster hc(sim);
  auto* host = hc.add_machine();
  auto* vm = hc.add_vm(*host);
  interactive::InteractiveApp app(sim, *vm, interactive::rubis_params(),
                                  GetParam());
  app.start();
  sim.run_until(30);
  EXPECT_GT(app.throughput_rps(), 0);
  // Closed-loop identity: X = N / (R + Z).
  const double expected =
      GetParam() /
      (app.response_time_s() + interactive::InteractiveApp::kThinkTime.value());
  EXPECT_NEAR(app.throughput_rps(), expected, expected * 0.01);
  app.stop();
}

INSTANTIATE_TEST_SUITE_P(Clients, ClientSweep,
                         ::testing::Values(100, 400, 1600, 6400));

// -------------------------------------------------- regression recovery ----

class InverseRecovery : public ::testing::TestWithParam<double> {};

TEST_P(InverseRecovery, FitRecoversPlantedCoefficients) {
  const double b = GetParam();
  std::vector<double> x{1, 2, 4, 8, 16, 32};
  std::vector<double> y;
  for (double v : x) y.push_back(7.0 + b / v);
  auto fit = stats::InverseRegression::fit(x, y);
  ASSERT_TRUE(fit.has_value());
  // Two points off the samples pin both planted coefficients.
  for (double v : {0.5, 64.0}) {
    EXPECT_NEAR(fit->predict(v), 7.0 + b / v, 1e-6 * (1 + b / v));
  }
}

INSTANTIATE_TEST_SUITE_P(Slopes, InverseRecovery,
                         ::testing::Values(10.0, 100.0, 1000.0));

// --------------------------------------------------- energy accounting ----

class EnergySweep : public ::testing::TestWithParam<int> {};

TEST_P(EnergySweep, EnergyBoundedByIdleAndPeak) {
  TestBed bed;
  bed.add_native_nodes(GetParam());
  bed.run_job(workload::sort_job().with_input_gb(1));
  const double end = bed.sim().now();
  const double joules = bed.cluster().energy_joules(0, end).value();
  const auto& cal = bed.cluster().calibration();
  const double idle_floor = GetParam() * cal.pm_idle_watts.value() * end;
  const double peak_ceiling = GetParam() * cal.pm_peak_watts.value() * end;
  EXPECT_GE(joules, idle_floor - 1e-6);
  EXPECT_LE(joules, peak_ceiling + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Nodes, EnergySweep, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace hybridmr
