// The request stream behind the slice-exclusivity regressions: 600
// single-flow tasks at t=0 on a k=4 fat-tree at 2^30 B/s, drawn like the
// cross-pod service stress producers. Filling its idle gaps lands a slice
// end one ulp past the next busy interval's start unless Algorithm 3 clamps
// it, at every seed the suites use (5, 24, 35).
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow.hpp"
#include "topo/fattree.hpp"
#include "util/rng.hpp"

namespace taps::test {

/// Link capacity of the fat-tree the stream runs on (k=4).
inline constexpr double kExclusivityCapacity = 1073741824.0;

/// One flow per task, all arriving at t=0 (spec.arrival 0), in task order.
/// `ft` must be a k=4 fat-tree at kExclusivityCapacity.
inline std::vector<net::FlowSpec> exclusivity_stream(const topo::FatTree& ft,
                                                     std::uint64_t seed) {
  util::Rng rng(seed);
  const int half = ft.k() / 2;
  std::vector<net::FlowSpec> out;
  out.reserve(600);
  for (int i = 0; i < 600; ++i) {
    const int src_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
    int dst_pod = src_pod;
    if (rng.bernoulli(0.4)) dst_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
    const topo::NodeId src = ft.host(src_pod, 0, static_cast<int>(rng.uniform_int(0, half - 1)));
    topo::NodeId dst = src;
    while (dst == src) dst = ft.host(dst_pod, 1, static_cast<int>(rng.uniform_int(0, half - 1)));
    const double transfer = rng.uniform_real(0.001, 0.01);
    net::FlowSpec f;
    f.src = src;
    f.dst = dst;
    f.size = transfer * kExclusivityCapacity;
    f.deadline = rng.uniform_real(0.5, 2.0);
    out.push_back(f);
  }
  return out;
}

}  // namespace taps::test
