// Multi-resource vectors.
//
// CPU is measured in cores, memory in MB (an occupancy, not a rate), disk
// and network in MB/s. The same struct is used for machine capacities,
// workload demands, throttle caps and granted allocations.
#pragma once

#include <algorithm>
#include <limits>
#include <string>

namespace hybridmr::cluster {

enum class ResourceKind { kCpu = 0, kMemory = 1, kDisk = 2, kNet = 3 };

inline constexpr int kNumResources = 4;

/// Name for diagnostics ("cpu", "memory", "disk", "net").
const char* to_string(ResourceKind kind);

struct Resources {
  double cpu = 0;     // cores
  double memory = 0;  // MB
  double disk = 0;    // MB/s
  double net = 0;     // MB/s

  /// A vector with every component at +infinity (used for "no cap").
  static Resources unbounded() {
    const double inf = std::numeric_limits<double>::infinity();
    return {inf, inf, inf, inf};
  }

  // The arithmetic below is defined inline: these run inside the per-kind
  // water-fill loops of Machine::recompute/VirtualMachine::distribute
  // (hundreds of millions of calls per scale/96 run), where a cross-TU
  // call is measurable.
  double& operator[](ResourceKind kind) {
    switch (kind) {
      case ResourceKind::kCpu:
        return cpu;
      case ResourceKind::kMemory:
        return memory;
      case ResourceKind::kDisk:
        return disk;
      case ResourceKind::kNet:
        return net;
    }
    return cpu;  // unreachable
  }
  double operator[](ResourceKind kind) const {
    return const_cast<Resources&>(*this)[kind];
  }

  Resources& operator+=(const Resources& o) {
    cpu += o.cpu;
    memory += o.memory;
    disk += o.disk;
    net += o.net;
    return *this;
  }
  Resources& operator-=(const Resources& o) {
    cpu -= o.cpu;
    memory -= o.memory;
    disk -= o.disk;
    net -= o.net;
    return *this;
  }
  friend Resources operator+(Resources a, const Resources& b) { return a += b; }
  friend Resources operator-(Resources a, const Resources& b) { return a -= b; }
  Resources operator*(double k) const {
    return {cpu * k, memory * k, disk * k, net * k};
  }

  /// Component-wise minimum.
  [[nodiscard]] Resources min(const Resources& o) const {
    return {std::min(cpu, o.cpu), std::min(memory, o.memory),
            std::min(disk, o.disk), std::min(net, o.net)};
  }

  /// Largest component-wise ratio this/capacity (0 where capacity is 0).
  /// This is the "dominant share" used by placement heuristics.
  [[nodiscard]] double dominant_share(const Resources& capacity) const {
    double share = 0;
    for (int i = 0; i < kNumResources; ++i) {
      const auto kind = static_cast<ResourceKind>(i);
      const double cap = capacity[kind];
      if (cap > 0) share = std::max(share, (*this)[kind] / cap);
    }
    return share;
  }

  /// Clamps all components into [0, hi component-wise].
  [[nodiscard]] Resources clamped_to(const Resources& hi) const {
    Resources out;
    for (int i = 0; i < kNumResources; ++i) {
      const auto kind = static_cast<ResourceKind>(i);
      out[kind] = std::clamp((*this)[kind], 0.0, hi[kind]);
    }
    return out;
  }
};

}  // namespace hybridmr::cluster
