#include "workload/benchmarks.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace hybridmr::workload {

using mapred::JobClass;
using mapred::JobSpec;

JobSpec twitter() {
  JobSpec s;
  s.name = "Twitter";
  s.job_class = JobClass::kMemoryIoBound;
  s.input_gb = 25;
  s.map_cpu_s_per_mb = sim::SecondsPerMB{0.09};
  s.reduce_cpu_s_per_mb = sim::SecondsPerMB{0.08};
  s.map_selectivity = 0.40;
  s.reduce_output_ratio = 0.20;
  s.task_memory_mb = sim::MegaBytes{800};
  return s;
}

JobSpec wcount() {
  JobSpec s;
  s.name = "Wcount";
  s.job_class = JobClass::kMemoryIoBound;
  s.input_gb = 20;
  s.map_cpu_s_per_mb = sim::SecondsPerMB{0.10};
  s.reduce_cpu_s_per_mb = sim::SecondsPerMB{0.03};
  s.map_selectivity = 0.25;
  s.reduce_output_ratio = 0.30;
  s.task_memory_mb = sim::MegaBytes{700};
  return s;
}

JobSpec pi_est() {
  JobSpec s;
  s.name = "PiEst";
  s.job_class = JobClass::kCpuBound;
  // 10M sample points: a tiny input (128 MB in 1 MB splits -> 128 map
  // tasks) with all the cost in compute, like hadoop-examples pi. Having
  // more tasks than cluster slots keeps every wave full.
  s.input_gb = 0.125;
  s.split_mb = sim::MegaBytes{1};
  s.map_cpu_s_per_mb = sim::SecondsPerMB{9.6};
  s.reduce_cpu_s_per_mb = sim::SecondsPerMB{0.01};
  s.map_selectivity = 0.001;
  s.reduce_output_ratio = 1.0;
  s.task_memory_mb = sim::MegaBytes{200};
  s.num_reducers = 1;
  return s;
}

JobSpec dist_grep() {
  JobSpec s;
  s.name = "DistGrep";
  s.job_class = JobClass::kIoBound;
  s.input_gb = 20;
  s.map_cpu_s_per_mb = sim::SecondsPerMB{0.035};
  s.reduce_cpu_s_per_mb = sim::SecondsPerMB{0.01};
  s.map_selectivity = 0.002;
  s.reduce_output_ratio = 1.0;
  s.task_memory_mb = sim::MegaBytes{300};
  s.num_reducers = 1;
  return s;
}

JobSpec sort_job() {
  JobSpec s;
  s.name = "Sort";
  s.job_class = JobClass::kIoBound;
  s.input_gb = 20;
  s.map_cpu_s_per_mb = sim::SecondsPerMB{0.08};
  s.reduce_cpu_s_per_mb = sim::SecondsPerMB{0.02};
  s.sort_cpu_s_per_mb = sim::SecondsPerMB{0.008};
  s.map_selectivity = 1.0;
  s.reduce_output_ratio = 1.0;
  s.output_replicas = 1;  // terasort convention
  s.task_memory_mb = sim::MegaBytes{400};
  return s;
}

JobSpec kmeans() {
  JobSpec s;
  s.name = "Kmeans";
  s.job_class = JobClass::kCpuBound;
  s.input_gb = 10;
  s.map_cpu_s_per_mb = sim::SecondsPerMB{0.35};
  s.reduce_cpu_s_per_mb = sim::SecondsPerMB{0.10};
  s.map_selectivity = 0.05;
  s.reduce_output_ratio = 0.50;
  s.task_memory_mb = sim::MegaBytes{500};
  return s;
}

std::vector<JobSpec> all_benchmarks() {
  return {twitter(), wcount(), pi_est(), dist_grep(), sort_job(), kmeans()};
}

std::vector<JobSpec> fig8_wave() {
  return {sort_job().with_input_gb(2.0), dist_grep().with_input_gb(4.0),
          wcount().with_input_gb(2.0)};
}

JobSpec benchmark(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (const auto& spec : all_benchmarks()) {
    std::string candidate = spec.name;
    std::transform(candidate.begin(), candidate.end(), candidate.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (candidate == key) return spec;
  }
  throw std::out_of_range("unknown benchmark: " + name);
}

}  // namespace hybridmr::workload
