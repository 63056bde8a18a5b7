// TestDFSIO-equivalent benchmark driver (paper Fig. 1(c)).
//
// Launches N concurrent writer or reader tasks of `file_mb` each across the
// given sites and reports Hadoop TestDFSIO's two metrics:
//   - average I/O rate: mean over tasks of (bytes / task time), MB/s
//   - throughput:       (total bytes) / (sum of task times), MB/s
#pragma once

#include <vector>

#include "storage/hdfs.h"

namespace hybridmr::storage {

struct DfsIoResult {
  sim::MBps avg_io_rate_mbps;
  sim::MBps throughput_mbps;
};

class DfsIoBenchmark {
 public:
  DfsIoBenchmark(sim::Simulation& sim, Hdfs& hdfs) : sim_(sim), hdfs_(hdfs) {}

  /// One writer per site, each writing `file_mb`. Runs the simulation
  /// until all writers finish.
  DfsIoResult run_write(const std::vector<cluster::ExecutionSite*>& sites,
                        sim::MegaBytes file_mb);

  /// One reader per site, each reading a freshly staged `file_mb` file
  /// block-by-block.
  DfsIoResult run_read(const std::vector<cluster::ExecutionSite*>& sites,
                       sim::MegaBytes file_mb);

 private:
  sim::Simulation& sim_;
  Hdfs& hdfs_;
};

}  // namespace hybridmr::storage
