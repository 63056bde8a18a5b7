// Calibration constants for the simulated testbed.
//
// Values mirror the paper's hardware (§IV): dual 2.4 GHz Opteron servers with
// 4 GB RAM, SCSI disks and 1 GbE; Xen 3.4.2 VMs with 1 vCPU / 1 GB. The
// virtualization taxes come from the paper's own citations (≈5 % CPU, ≈15 %
// I/O [10]) and its Fig. 1/2 measurements; everything is centralized here so
// the overhead model is auditable and tunable in one place.
#pragma once

#include "cluster/resources.h"
#include "sim/units.h"

namespace hybridmr::cluster {

struct Calibration {
  // --- Physical machine (dual-core Opteron class) ---
  double pm_cores = 2.0;
  sim::MegaBytes pm_memory_mb{4096};
  sim::MBps pm_disk_mbps{80};  // Ultra320 SCSI effective sequential bandwidth
  sim::MBps pm_net_mbps{117};  // 1 GbE payload rate
  sim::Watts pm_idle_watts{180};  // typical 2-socket Opteron server
  sim::Watts pm_peak_watts{260};

  // --- Virtual machine (Xen guest) ---
  double vm_vcpus = 1.0;
  sim::MegaBytes vm_memory_mb{1024};

  // Virtualization taxes (fraction of useful work lost to the hypervisor).
  double cpu_tax = 0.05;  // paper §I: ~5 % for computation
  double io_tax = 0.12;   // paper §I: ~15 % for I/O; 12 % base + contention
  // Extra I/O tax per additional VM actively doing I/O on the same host
  // (shared Dom-0 back-end contention). Calibrated to Fig. 1(a): 7-24 %.
  double io_contention_tax = 0.02;
  // Buffer-cache miss penalty: extra I/O tax that phases in as the VM's
  // recent I/O volume exceeds `io_cache_knee_factor` x VM memory.
  double io_cache_tax = 0.04;
  double io_cache_knee_factor = 4.0;
  double io_cache_halflife_s = 120;  // decay of the recent-I/O counter
  // Dom-0 (privileged domain) runs near-native: Fig. 2(c) "< 5 % overhead".
  double dom0_cpu_tax = 0.015;
  double dom0_io_tax = 0.03;
  // Xen PV netfront throughput ceiling per guest (circa Xen 3.x, ~0.3
  // Gbps): the mechanism behind the paper's cross-host penalty (Fig. 2(a)).
  sim::MBps vm_net_cap_mbps{117};  // effectively uncapped; see EXPERIMENTS.md

  // --- Live migration (Xen pre-copy) ---
  // Effective migration bandwidth: Xen rate-limits and competes with guest
  // traffic, so this is far below line rate.
  sim::MBps migration_bw_mbps{10};
  sim::MegaBytes migration_stop_threshold_mb{4};  // stop-and-copy threshold
  int migration_max_rounds = 30;
  double migration_downtime_overhead_s = 0.05;  // fixed resume cost
  sim::MBps idle_dirty_rate_mbps{0.4};
  // Dirty rate grows with memory activity of the running workloads:
  // MB/s of dirtying per MB of hot memory (PerSecond * MegaBytes -> MBps).
  sim::PerSecond dirty_rate_per_active_mb{0.004};
  double migration_guest_slowdown = 0.10;   // guest slows ~10 % during precopy

  // --- Hadoop ---
  int map_slots_per_node = 2;
  int reduce_slots_per_node = 2;
  // Stock mapred.child.java.opts heap: every task JVM gets this fixed heap
  // regardless of node size (the rigidity HybridMR's DRM reclaims).
  sim::MegaBytes hadoop_child_heap_mb{256};
  int hdfs_replicas = 2;
  sim::MegaBytes hdfs_block_mb{128};
  // Per-stream HDFS rates: what one reader/writer/shuffle stream demands.
  sim::MBps hdfs_stream_disk_mbps{60};
  sim::MBps hdfs_stream_net_mbps{50};
  // Same-host VM-to-VM transfers bypass the physical NIC (Xen loopback).
  sim::MBps loopback_mbps{250};
  // CPU cost of the DataNode daemon per active stream (checksumming,
  // buffer copies). This is what the split architecture (Fig. 3) offloads
  // from TaskTracker VMs onto a dedicated storage VM.
  double hdfs_serve_cpu_per_stream = 0.08;
  double hdfs_read_cpu_per_stream = 0.06;
  double speculative_slowdown_threshold = 0.5;  // progress-rate gap

  // --- Memory pressure model (piecewise-linear; see DESIGN.md §3) ---
  // Hadoop tasks degrade gracefully under small heaps (extra spill passes
  // to disk), so the penalty is bounded rather than thrashing-shaped.
  double mem_soft_knee = 0.7;      // alloc/demand ratio where slope changes
  double mem_soft_slope = 0.4;     // gentle slope above the knee
  double mem_hard_slope = 0.7;     // spill-bound slope below the knee
  double mem_floor = 0.4;          // minimum speed factor

  /// The default testbed calibration.
  static const Calibration& standard() {
    static const Calibration c{};
    return c;
  }

  [[nodiscard]] Resources pm_capacity() const {
    return {pm_cores, pm_memory_mb.value(), pm_disk_mbps.value(),
            pm_net_mbps.value()};
  }
};

}  // namespace hybridmr::cluster
