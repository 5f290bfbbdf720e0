// The benchmark's own input generators. They use std::mt19937_64 and
// hand-written inverse-CDF draws only, so nothing under src/workload or
// src/util/rng can change what is measured; --seed is the only input.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "bench.hpp"

namespace taps_bench {

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : eng_(seed) {}

  /// Uniform in [0, 1), 53 random bits.
  [[nodiscard]] double uniform() { return static_cast<double>(eng_() >> 11) * 0x1.0p-53; }
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n), n > 0.
  [[nodiscard]] std::size_t index(std::size_t n);
  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }
  [[nodiscard]] double exponential(double mean);
  /// Normal(mean, sd) truncated below at `lo`, by inverting the truncated CDF.
  [[nodiscard]] double normal_above(double mean, double sd, double lo);
  /// `n` uniforms in [0, 1), one from each of n equal strata, in random
  /// order: feeding them through an inverse CDF gives draws whose empirical
  /// distribution matches the target closely while the seed still sets the
  /// order and the values within each stratum.
  [[nodiscard]] std::vector<double> stratified(std::size_t n);

 private:
  std::mt19937_64 eng_;
};

/// The paper's Sec. V-A fat-tree stream: Poisson arrivals at 1500 tasks/s
/// (the scaled preset's rate), Poisson(flows_per_task) flows per task (at
/// least one), exponential deadlines of mean 40 ms (floor 2 ms), Normal(200
/// KB, 50 KB) flow sizes truncated at 10 KB, uniform distinct endpoints.
/// The per-task draws (gap, deadline, flow count) are stratified, so a
/// stream's offered load, which a decision's cost depends on steeply,
/// varies little from seed to seed.
[[nodiscard]] std::vector<svc::TaskRequest> coflow_stream(const topo::FatTree& ft,
                                                          std::size_t tasks,
                                                          double flows_per_task,
                                                          std::uint64_t seed);

/// `tasks` single-flow tasks all arriving at t=0 (one gather window): 0.5-2
/// ms transfers between uniform distinct hosts, deadlines on a near-sorted
/// SLO ramp over [50 ms, 4 s] jittered by up to 3 ramp steps.
[[nodiscard]] std::vector<svc::TaskRequest> burst_stream(const topo::FatTree& ft,
                                                         std::size_t tasks,
                                                         std::uint64_t seed);

/// Endless single-flow stream in which 30% of tasks span two pods: 2-20 ms
/// transfers with 1.2-3x deadline slack, virtual arrivals 10 ms apart on
/// average. Deterministic in the seed; drawn one request at a time.
class MixedStream {
 public:
  MixedStream(const topo::FatTree& ft, std::uint64_t seed) : ft_(&ft), draw_(seed) {}
  [[nodiscard]] svc::TaskRequest next();

 private:
  const topo::FatTree* ft_;
  Draw draw_;
  double arrival_ = 0.0;
};

}  // namespace taps_bench
