// Pod-level metadata derived from a topology at build time.
//
// A PodMap partitions the nodes of a hierarchical topology into pods
// (aggregation subtrees) and records each pod's summed uplink capacity (the
// links leaving the pod toward the core layer). The sharded admission
// service reads both: pod_of() maps hosts to pod shards, and the uplink
// capacity is the base of a pod's cross-pod reservation budget
// (svc::AdmissionService, docs/CONTROLLER.md).
//
// Topologies without a pod structure return nullptr from Topology::pods().
#pragma once

#include <vector>

#include "topo/graph.hpp"

namespace taps::topo {

inline constexpr int kNoPod = -1;

class PodMap {
 public:
  /// Derive the map from `g` and a per-node pod assignment (kNoPod for core
  /// nodes that belong to no pod). `pod_count` must exceed every assignment.
  PodMap(const Graph& g, std::vector<int> pod_of_node, int pod_count);

  [[nodiscard]] int pod_count() const { return static_cast<int>(uplink_capacity_.size()); }
  [[nodiscard]] int pod_of(NodeId node) const {
    return pod_of_node_[static_cast<std::size_t>(node)];
  }
  /// Sum of the capacities of pod `p`'s links toward the core.
  [[nodiscard]] double uplink_capacity(int p) const {
    return uplink_capacity_[static_cast<std::size_t>(p)];
  }

 private:
  std::vector<int> pod_of_node_;
  std::vector<double> uplink_capacity_;  // per pod
};

}  // namespace taps::topo
