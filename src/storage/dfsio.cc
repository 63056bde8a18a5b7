#include "storage/dfsio.h"

#include <memory>
#include <string>

namespace hybridmr::storage {
namespace {

struct TaskClock {
  double start = 0;
  double end = 0;
};

DfsIoResult summarize(const std::vector<TaskClock>& clocks,
                      sim::MegaBytes file_mb) {
  DfsIoResult r;
  double sum_rate = 0;
  double sum_time = 0;
  for (const auto& c : clocks) {
    const double t = c.end - c.start;
    if (t <= 0) continue;
    sum_rate += file_mb.value() / t;
    sum_time += t;
  }
  if (!clocks.empty()) {
    r.avg_io_rate_mbps =
        sim::MBps{sum_rate / static_cast<double>(clocks.size())};
  }
  if (sum_time > 0) {
    r.throughput_mbps = sim::MBps{
        file_mb.value() * static_cast<double>(clocks.size()) / sum_time};
  }
  return r;
}

}  // namespace

DfsIoResult DfsIoBenchmark::run_write(
    const std::vector<cluster::ExecutionSite*>& sites,
    sim::MegaBytes file_mb) {
  auto clocks = std::make_shared<std::vector<TaskClock>>(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    (*clocks)[i].start = sim_.now();
    hdfs_.write(*sites[i], file_mb, [this, clocks, i]() {
      (*clocks)[i].end = sim_.now();
    });
  }
  sim_.run();
  return summarize(*clocks, file_mb);
}

DfsIoResult DfsIoBenchmark::run_read(
    const std::vector<cluster::ExecutionSite*>& sites,
    sim::MegaBytes file_mb) {
  auto clocks = std::make_shared<std::vector<TaskClock>>(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const auto file =
        hdfs_.stage_file("dfsio-" + std::to_string(i), file_mb);
    (*clocks)[i].start = sim_.now();
    // Read the file block by block, sequentially, like a TestDFSIO mapper.
    // The chain closure references itself only weakly; each in-flight
    // read's completion callback carries the one strong reference, so the
    // chain is released when the last block lands (no shared_ptr cycle).
    auto next = std::make_shared<std::function<void(int)>>();
    const int blocks = hdfs_.num_blocks(file);
    cluster::ExecutionSite* site = sites[i];
    std::weak_ptr<std::function<void(int)>> weak_next = next;
    *next = [this, clocks, i, file, blocks, site, weak_next](int block) {
      if (block >= blocks) {
        (*clocks)[i].end = sim_.now();
        return;
      }
      auto self = weak_next.lock();
      if (!self) return;
      hdfs_.read_block(file, block, *site,
                       [self, block]() { (*self)(block + 1); });
    };
    (*next)(0);
  }
  sim_.run();
  return summarize(*clocks, file_mb);
}

}  // namespace hybridmr::storage
