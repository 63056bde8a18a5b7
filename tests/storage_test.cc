// Tests for the HDFS model: placement, locality, flows, TestDFSIO.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "sim/simulation.h"
#include "storage/dfsio.h"
#include "storage/hdfs.h"

namespace hybridmr::storage {
namespace {

using cluster::Calibration;
using cluster::HybridCluster;
using cluster::Machine;

class HdfsTest : public ::testing::Test {
 protected:
  HdfsTest() : cluster(sim), hdfs(sim, Calibration::standard()) {}

  sim::Simulation sim{7};
  HybridCluster cluster;
  Hdfs hdfs;
};

TEST_F(HdfsTest, StageFileSplitsIntoBlocks) {
  Machine* m = cluster.add_machine();
  hdfs.add_datanode(*m);
  const auto f = hdfs.stage_file("in", sim::MegaBytes{300});
  EXPECT_EQ(hdfs.num_blocks(f), 3);  // 128 + 128 + 44
  EXPECT_DOUBLE_EQ(hdfs.block_size_mb(f, 0).value(), 128);
  EXPECT_DOUBLE_EQ(hdfs.block_size_mb(f, 1).value(), 128);
  EXPECT_NEAR(hdfs.block_size_mb(f, 2).value(), 44, 1e-9);
}

TEST_F(HdfsTest, TinyFileIsOneBlock) {
  Machine* m = cluster.add_machine();
  hdfs.add_datanode(*m);
  const auto f = hdfs.stage_file("tiny", sim::MegaBytes{5});
  EXPECT_EQ(hdfs.num_blocks(f), 1);
  EXPECT_DOUBLE_EQ(hdfs.block_size_mb(f, 0).value(), 5);
}

TEST_F(HdfsTest, ReplicationUsesDistinctNodes) {
  auto machines = cluster.add_machines(4);
  for (auto* m : machines) hdfs.add_datanode(*m);
  const auto f = hdfs.stage_file("in", sim::MegaBytes{1024});
  for (int b = 0; b < hdfs.num_blocks(f); ++b) {
    const auto& reps = hdfs.replicas(f, b);
    ASSERT_EQ(reps.size(), 2u);  // calibrated replica count
    EXPECT_NE(reps[0], reps[1]);
  }
}

TEST_F(HdfsTest, PlacementSpreadsAcrossDatanodes) {
  auto machines = cluster.add_machines(4);
  for (auto* m : machines) hdfs.add_datanode(*m);
  const auto f = hdfs.stage_file("in", sim::MegaBytes{128 * 16});
  EXPECT_EQ(hdfs.num_blocks(f), 16);
  // Randomized placement: no datanode hoards the file, total is 2 replicas.
  double total = 0;
  double max_mb = 0;
  for (const auto& dn : hdfs.datanodes()) {
    total += dn->stored_mb().value();
    max_mb = std::max(max_mb, dn->stored_mb().value());
  }
  EXPECT_NEAR(total, 2 * 128 * 16, 1e-6);
  EXPECT_LE(max_mb, 0.6 * total);
}

TEST_F(HdfsTest, LocalReadUsesDiskOnly) {
  Machine* m = cluster.add_machine();
  hdfs.add_datanode(*m);
  const auto f = hdfs.stage_file("in", sim::MegaBytes{60});
  bool done = false;
  hdfs.read_block(f, 0, *m, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  // 60 MB at the 60 MB/s stream rate.
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
  EXPECT_NEAR(hdfs.bytes_read_local_mb().value(), 60, 1e-9);
  EXPECT_NEAR(hdfs.bytes_read_remote_mb().value(), 0, 1e-9);
}

TEST_F(HdfsTest, RemoteReadSlowerThanLocal) {
  Machine* a = cluster.add_machine("a");
  Machine* b = cluster.add_machine("b");
  Machine* c = cluster.add_machine("c");
  hdfs.add_datanode(*a);
  hdfs.add_datanode(*b);
  const auto f = hdfs.stage_file("in", sim::MegaBytes{50});
  bool done = false;
  hdfs.read_block(f, 0, *c, [&] { done = true; });  // c has no replica
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);  // 50 MB at the 50 MB/s net stream
  EXPECT_NEAR(hdfs.bytes_read_remote_mb().value(), 50, 1e-9);
}

TEST_F(HdfsTest, LocalityDetection) {
  Machine* host = cluster.add_machine();
  auto* vm1 = cluster.add_vm(*host);
  auto* vm2 = cluster.add_vm(*host);
  Machine* other = cluster.add_machine();
  hdfs.add_datanode(*vm1);
  const auto f = hdfs.stage_file("in", sim::MegaBytes{10});
  // The locality index lists the block on its datanode's site only; a
  // sibling VM reaches it host-locally through the shared machine.
  ASSERT_EQ(hdfs.blocks_on(f, *vm1).size(), 1u);
  EXPECT_EQ(hdfs.blocks_on(f, *vm1).front(), 0u);
  EXPECT_TRUE(hdfs.blocks_on(f, *vm2).empty());
  EXPECT_TRUE(hdfs.blocks_on(f, *other).empty());
  EXPECT_TRUE(same_host(*vm1, *vm2));
  EXPECT_FALSE(same_host(*vm1, *other));
}

TEST_F(HdfsTest, WriteReplicatesToStoredState) {
  auto machines = cluster.add_machines(3);
  for (auto* m : machines) hdfs.add_datanode(*m);
  bool done = false;
  hdfs.write(*machines[0], sim::MegaBytes{120}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(hdfs.bytes_written_mb().value(), 120, 1e-9);
  double total_stored = 0;
  for (const auto& dn : hdfs.datanodes()) total_stored += dn->stored_mb().value();
  EXPECT_NEAR(total_stored, 240, 1e-9);  // 2 replicas
  // Remote pipeline hop paces at min(disk, net) = 50 MB/s.
  EXPECT_NEAR(sim.now(), 120.0 / 50.0, 1e-9);
}

TEST_F(HdfsTest, TransferLoopbackAvoidsNetwork) {
  Machine* host = cluster.add_machine();
  auto* vm1 = cluster.add_vm(*host);
  auto* vm2 = cluster.add_vm(*host);
  Machine* remote_host = cluster.add_machine();
  auto* vm3 = cluster.add_vm(*remote_host);

  bool loop_done = false;
  hdfs.transfer(*vm1, *vm2, sim::MegaBytes{60}, [&] { loop_done = true; });
  sim.run();
  const double loop_time = sim.now();
  EXPECT_TRUE(loop_done);

  bool remote_done = false;
  hdfs.transfer(*vm1, *vm3, sim::MegaBytes{60}, [&] { remote_done = true; });
  sim.run();
  const double remote_time = sim.now() - loop_time;
  EXPECT_TRUE(remote_done);
  EXPECT_LT(loop_time, remote_time);
}

// A batch with no source, or with no stream to pull through, would be a
// flow that never finishes (zero streams is zero rate, infinite work). It
// is rejected up front, with one source as with several.
TEST_F(HdfsTest, TransferBatchRejectsNoSourcesOrNoStreams) {
  Machine* dst_host = cluster.add_machine();
  auto* dst = cluster.add_vm(*dst_host);
  std::vector<std::pair<cluster::ExecutionSite*, sim::MegaBytes>> sources;
  bool done = false;
  auto on_done = [&] { done = true; };
  EXPECT_THROW(hdfs.transfer_batch(sources, *dst, on_done),
               std::invalid_argument);
  for (int i = 0; i < 2; ++i) {
    Machine* src_host = cluster.add_machine();
    sources.emplace_back(cluster.add_vm(*src_host), sim::MegaBytes{60});
  }
  for (const int streams : {0, -1}) {
    EXPECT_THROW(hdfs.transfer_batch(sources, *dst, on_done, streams),
                 std::invalid_argument);
    EXPECT_THROW(
        hdfs.transfer_batch({sources.front()}, *dst, on_done, streams),
        std::invalid_argument);
  }
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(dst->workloads().empty());

  hdfs.transfer_batch(sources, *dst, on_done, 1);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(std::isfinite(sim.now()));
}

TEST_F(HdfsTest, FlowCancelStopsWork) {
  Machine* m = cluster.add_machine();
  hdfs.add_datanode(*m);
  const auto f = hdfs.stage_file("in", sim::MegaBytes{600});
  bool done = false;
  auto flow = hdfs.read_block(f, 0, *m, [&] { done = true; });
  EXPECT_TRUE(flow.active());
  sim.at(0.5, [&] { flow.cancel(); });
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(flow.active());
  EXPECT_TRUE(m->workloads().empty());
}

TEST_F(HdfsTest, FlowProgressAdvances) {
  Machine* m = cluster.add_machine();
  hdfs.add_datanode(*m);
  const auto f = hdfs.stage_file("in", sim::MegaBytes{120});  // one block: 2s at 60 MB/s
  auto flow = hdfs.read_block(f, 0, *m, [] {});
  sim.at(1.0, [&] {
    // Progress is settled lazily; nudge the machine to settle.
    m->settle_now();
    EXPECT_NEAR(flow.progress(), 0.5, 0.05);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(flow.progress(), 1.0);
}

TEST_F(HdfsTest, DfsIoWriteAndReadProduceRates) {
  auto machines = cluster.add_machines(4);
  std::vector<cluster::ExecutionSite*> sites;
  for (auto* m : machines) {
    hdfs.add_datanode(*m);
    sites.push_back(m);
  }
  DfsIoBenchmark bench(sim, hdfs);
  const auto w = bench.run_write(sites, sim::MegaBytes{256});
  EXPECT_GT(w.avg_io_rate_mbps.value(), 0);
  EXPECT_GT(w.throughput_mbps.value(), 0);
  const auto r = bench.run_read(sites, sim::MegaBytes{256});
  EXPECT_GT(r.avg_io_rate_mbps.value(), 0);
  // Reads are mostly local; writes pay the replication pipeline.
  EXPECT_GT(r.avg_io_rate_mbps, w.avg_io_rate_mbps * 0.8);
}

TEST_F(HdfsTest, VirtualDfsIoSlowerThanNative) {
  // 4 native nodes vs 4 VMs on 2 hosts, same aggregate hardware per node
  // count; virtualization taxes should show up in the rates.
  auto native = cluster.add_machines(4, "n");
  std::vector<cluster::ExecutionSite*> native_sites(native.begin(),
                                                    native.end());
  sim::Simulation vsim{7};
  HybridCluster vcluster(vsim);
  Hdfs vhdfs(vsim, Calibration::standard());
  std::vector<cluster::ExecutionSite*> vm_sites;
  for (auto* host : vcluster.add_machines(2, "h")) {
    for (auto* vm : vcluster.virtualize(*host, 2)) {
      vm_sites.push_back(vm);
    }
  }
  for (auto* site : native_sites) hdfs.add_datanode(*site);
  for (auto* site : vm_sites) vhdfs.add_datanode(*site);

  DfsIoBenchmark nat(sim, hdfs);
  DfsIoBenchmark virt(vsim, vhdfs);
  const auto nw = nat.run_write(native_sites, sim::MegaBytes{512});
  const auto vw = virt.run_write(vm_sites, sim::MegaBytes{512});
  EXPECT_LT(vw.throughput_mbps, nw.throughput_mbps);
}

}  // namespace
}  // namespace hybridmr::storage
