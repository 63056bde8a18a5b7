// Tests for the interactive application model and SLA monitoring.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster.h"
#include "interactive/app.h"
#include "interactive/presets.h"
#include "interactive/sla.h"
#include "sim/simulation.h"

namespace hybridmr::interactive {
namespace {

using cluster::HybridCluster;
using cluster::Machine;
using cluster::Resources;
using cluster::VirtualMachine;

class InteractiveTest : public ::testing::Test {
 protected:
  sim::Simulation sim{11};
  HybridCluster cluster{sim};
};

TEST_F(InteractiveTest, LightLoadMeetsSla) {
  Machine* host = cluster.add_machine();
  VirtualMachine* vm = cluster.add_vm(*host);
  auto app = std::make_unique<InteractiveApp>(sim, *vm, rubis_params(), 300);
  app->start();
  sim.run_until(60);
  EXPECT_LT(app->response_time_s(), app->params().sla_s.value());
  EXPECT_GT(app->throughput_rps(), 0);
  app->stop();
}

TEST_F(InteractiveTest, LatencyRisesWithClients) {
  Machine* host = cluster.add_machine();
  VirtualMachine* vm = cluster.add_vm(*host);
  auto app = std::make_unique<InteractiveApp>(sim, *vm, rubis_params(), 200);
  app->start();
  sim.run_until(30);
  const double light = app->response_time_s();
  app->set_clients(4000);
  sim.run_until(60);
  const double heavy = app->response_time_s();
  EXPECT_GT(heavy, light * 3);
  app->stop();
}

TEST_F(InteractiveTest, HockeyStickAroundSaturation) {
  // Sweep clients; latency should be flat-ish then blow up.
  std::vector<double> latencies;
  for (int clients : {200, 800, 1600, 3200, 6400}) {
    sim::Simulation s{5};
    HybridCluster c{s};
    Machine* host = c.add_machine();
    VirtualMachine* vm = c.add_vm(*host);
    auto app =
        std::make_unique<InteractiveApp>(s, *vm, rubis_params(), clients);
    app->start();
    s.run_until(30);
    latencies.push_back(app->response_time_s());
    app->stop();
  }
  EXPECT_LT(latencies[0], 0.2);
  EXPECT_GT(latencies.back(), 1.0);
  for (std::size_t i = 1; i < latencies.size(); ++i) {
    EXPECT_GE(latencies[i], latencies[i - 1] * 0.8);  // roughly monotone
  }
}

TEST_F(InteractiveTest, BatchInterferenceRaisesLatency) {
  Machine* host = cluster.add_machine();
  VirtualMachine* app_vm = cluster.add_vm(*host);
  VirtualMachine* batch_vm = cluster.add_vm(*host);
  // Olio is I/O heavy.
  auto app =
      std::make_unique<InteractiveApp>(sim, *app_vm, olio_params(), 900);
  app->start();
  sim.run_until(30);
  const double alone = app->response_time_s();

  // An I/O-hungry batch workload lands on the sibling VM.
  Resources d;
  d.disk = 80;
  d.cpu = 1.0;
  batch_vm->add(
      std::make_shared<cluster::Workload>(d, cluster::Workload::kService));
  sim.run_until(90);
  const double contended = app->response_time_s();
  EXPECT_GT(contended, alone * 1.2);
  app->stop();
}

TEST_F(InteractiveTest, SlaMonitorFlagsViolators) {
  Machine* host = cluster.add_machine();
  VirtualMachine* vm = cluster.add_vm(*host);
  auto ok_app =
      std::make_unique<InteractiveApp>(sim, *vm, rubis_params(), 100);
  ok_app->start();

  Machine* host2 = cluster.add_machine();
  VirtualMachine* vm2 = cluster.add_vm(*host2);
  // Far past saturation.
  auto hot_app =
      std::make_unique<InteractiveApp>(sim, *vm2, rubis_params(), 8000);
  hot_app->start();

  SlaMonitor monitor;
  monitor.track(*ok_app);
  monitor.track(*hot_app);
  sim.run_until(60);
  const auto violators = monitor.violators();
  ASSERT_EQ(violators.size(), 1u);
  EXPECT_EQ(violators[0], hot_app.get());
  ok_app->stop();
  hot_app->stop();
}

TEST_F(InteractiveTest, ViolationFractionComputed) {
  Machine* host = cluster.add_machine();
  VirtualMachine* vm = cluster.add_vm(*host);
  auto app = std::make_unique<InteractiveApp>(sim, *vm, rubis_params(), 8000);
  app->start();
  sim.run_until(60);
  EXPECT_GT(SlaMonitor::violation_fraction(*app, 0, 60), 0.9);
  app->stop();
}

TEST_F(InteractiveTest, StopRemovesServiceWorkload) {
  Machine* host = cluster.add_machine();
  VirtualMachine* vm = cluster.add_vm(*host);
  auto app = std::make_unique<InteractiveApp>(sim, *vm, tpcw_params(), 500);
  app->start();
  EXPECT_EQ(vm->members().size(), 1u);
  app->stop();
  EXPECT_TRUE(vm->members().empty());
  EXPECT_FALSE(app->running());
  sim.run_until(30);  // ticker cancelled; no crash
}

TEST_F(InteractiveTest, PresetsDiffer) {
  EXPECT_LT(rubis_params().io_mb_per_req, tpcw_params().io_mb_per_req);
  EXPECT_LT(tpcw_params().io_mb_per_req, olio_params().io_mb_per_req);
  EXPECT_EQ(rubis_params().sla_s, sim::Duration{2.0});
}

}  // namespace
}  // namespace hybridmr::interactive
