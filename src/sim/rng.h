// Deterministic random number generation for simulations.
//
// Every stochastic component draws from a Rng owned by the Simulation, so a
// fixed seed reproduces an entire run bit-for-bit.
#pragma once

#include <cstdint>
#include <random>
#include <span>

namespace hybridmr::sim {

/// Convenience wrapper over std::mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return uniform_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return d(engine_);
  }

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Exponential with the given rate (mean = 1/rate).
  double exponential(double rate) {
    std::exponential_distribution<double> d(rate);
    return d(engine_);
  }

  /// Bernoulli trial.
  bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Uniformly selected index into a container of size n (n > 0).
  std::size_t index(std::size_t n) {
    std::uniform_int_distribution<std::size_t> d(0, n - 1);
    return d(engine_);
  }

  /// Fisher-Yates shuffle of a span in place.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

 private:
  std::mt19937_64 engine_;
  // Carries call-to-call state: copy it with the engine, never reconstruct.
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

}  // namespace hybridmr::sim
