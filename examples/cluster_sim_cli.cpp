// cluster_sim_cli: run any of the paper's benchmarks on any cluster shape.
//
//   $ ./cluster_sim_cli <benchmark> <nodes> <native|virtual|dom0|split> [data_gb]
//   $ ./cluster_sim_cli sort 8 virtual 4
//
// Prints job phase timings, locality and utilization metrics — a handy way
// to poke at the substrate.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/testbed.h"
#include "workload/benchmarks.h"

namespace {

// Whole-string parses: trailing junk, overflow or an empty string fail.
bool parse_int(const char* s, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < INT_MIN || v > INT_MAX) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && errno == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hybridmr;
  int nodes = 0;
  double data_gb = 0;
  if (argc < 4 || argc > 5 || !parse_int(argv[2], nodes) || nodes < 1 ||
      (argc == 5 && (!parse_double(argv[4], data_gb) ||
                     !std::isfinite(data_gb) || data_gb < 0))) {
    std::fprintf(stderr,
                 "usage: %s <twitter|wcount|piest|distgrep|sort|kmeans> "
                 "<nodes >= 1> <native|virtual|dom0|split> [data_gb >= 0]\n",
                 argv[0]);
    return 2;
  }
  const std::string bench = argv[1];
  const std::string mode = argv[3];

  mapred::JobSpec spec;
  try {
    spec = workload::benchmark(bench);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (argc == 5) spec = spec.with_input_gb(data_gb);

  harness::TestBed bed;
  if (mode == "native") {
    bed.add_native_nodes(nodes);
  } else if (mode == "virtual") {
    bed.add_virtual_nodes((nodes + 1) / 2, 2);
  } else if (mode == "dom0") {
    bed.add_dom0_nodes(nodes);
  } else if (mode == "split") {
    bed.add_split_nodes((nodes + 1) / 2, 2);
  } else {
    std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
    return 2;
  }

  mapred::Job* job = bed.mr().submit(spec);
  bed.sim().run();
  const double end = bed.sim().now();

  std::printf("benchmark      : %s (%s, %.1f GB)\n", spec.name.c_str(),
              to_string(spec.job_class), spec.input_gb);
  std::printf("cluster        : %d %s nodes (%zu tasktrackers)\n", nodes,
              mode.c_str(), bed.mr().trackers().size());
  std::printf("JCT            : %.1f s  (map %.1f s, reduce %.1f s)\n",
              job->jct(), job->map_phase_seconds(),
              job->reduce_phase_seconds());
  std::printf("tasks          : %zu maps, %zu reduces, %d speculative\n",
              job->maps().size(), job->reduces().size(),
              bed.mr().speculative_launched());
  const double local = bed.hdfs().bytes_read_local_mb().value();
  const double remote = bed.hdfs().bytes_read_remote_mb().value();
  std::printf("input locality : %.1f%% local (%.0f MB local, %.0f MB remote)\n",
              local + remote > 0 ? 100.0 * local / (local + remote) : 100.0,
              local, remote);
  std::printf("hdfs writes    : %.0f MB (replicated)\n",
              bed.hdfs().bytes_written_mb().value());
  std::printf("cpu util       : %.1f%%  energy: %.1f Wh\n",
              bed.cluster().mean_utilization(cluster::ResourceKind::kCpu, 0,
                                             end) *
                  100,
              bed.cluster().energy_joules(0, end).value() / 3600.0);
  return 0;
}
