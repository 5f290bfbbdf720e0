#include "topo/pods.hpp"

#include <stdexcept>
#include <utility>

namespace taps::topo {

PodMap::PodMap(const Graph& g, std::vector<int> pod_of_node, int pod_count)
    : pod_of_node_(std::move(pod_of_node)) {
  if (pod_of_node_.size() != g.node_count()) {
    throw std::invalid_argument("PodMap: pod assignment size != node count");
  }
  uplink_capacity_.assign(static_cast<std::size_t>(pod_count), 0.0);
  for (const int p : pod_of_node_) {
    if (p != kNoPod && (p < 0 || p >= pod_count)) {
      throw std::invalid_argument("PodMap: pod index out of range");
    }
  }
  for (const Link& l : g.links()) {
    const int sp = pod_of(l.src);
    if (sp != kNoPod && pod_of(l.dst) == kNoPod) {
      uplink_capacity_[static_cast<std::size_t>(sp)] += l.capacity;
    }
  }
}

}  // namespace taps::topo
