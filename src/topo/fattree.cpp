#include "topo/fattree.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace taps::topo {

FatTree::FatTree(const FatTreeConfig& config) : k_(config.k), half_(config.k / 2) {
  if (k_ < 2 || k_ % 2 != 0) {
    throw std::invalid_argument("FatTree: k must be even and >= 2");
  }
  const double cap = config.link_capacity;

  cores_.reserve(static_cast<std::size_t>(half_) * half_);
  for (int c = 0; c < half_ * half_; ++c) {
    cores_.push_back(graph_.add_node(NodeKind::kCore, "core" + std::to_string(c)));
  }
  for (int p = 0; p < k_; ++p) {
    for (int a = 0; a < half_; ++a) {
      const NodeId agg = graph_.add_node(
          NodeKind::kAggregation, "agg" + std::to_string(p) + "." + std::to_string(a));
      aggs_.push_back(agg);
      for (int c = 0; c < half_; ++c) {
        graph_.add_duplex_link(agg, cores_[static_cast<std::size_t>(a * half_ + c)], cap);
      }
    }
    for (int e = 0; e < half_; ++e) {
      const NodeId edge = graph_.add_node(
          NodeKind::kTor, "edge" + std::to_string(p) + "." + std::to_string(e));
      edges_.push_back(edge);
      for (int a = 0; a < half_; ++a) {
        graph_.add_duplex_link(edge, aggs_[static_cast<std::size_t>(p * half_ + a)], cap);
      }
      for (int h = 0; h < half_; ++h) {
        const NodeId host = graph_.add_node(
            NodeKind::kHost, "h" + std::to_string(p) + "." + std::to_string(e) + "." +
                                 std::to_string(h));
        graph_.add_duplex_link(host, edge, cap);
        hosts_.push_back(host);
      }
    }
  }
  assert(hosts_.size() == static_cast<std::size_t>(k_) * half_ * half_);

  // Pod metadata for the sharded admission service: cores belong to no pod;
  // every agg/edge/host node carries its construction pod.
  std::vector<int> pod_of_node(graph_.node_count(), kNoPod);
  for (int p = 0; p < k_; ++p) {
    for (int i = 0; i < half_; ++i) {
      const auto slot = static_cast<std::size_t>(p) * half_ + static_cast<std::size_t>(i);
      pod_of_node[static_cast<std::size_t>(aggs_[slot])] = p;
      pod_of_node[static_cast<std::size_t>(edges_[slot])] = p;
    }
  }
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    pod_of_node[static_cast<std::size_t>(hosts_[h])] =
        static_cast<int>(h / (static_cast<std::size_t>(half_) * half_));
  }
  pod_map_ = std::make_unique<PodMap>(graph_, std::move(pod_of_node), k_);
}

int FatTree::pod_of_host(NodeId host) const {
  // hosts_ is ordered pod-major: pod * (half_*half_) hosts each.
  // Find index via arithmetic on the host ordering. Host node ids are not
  // contiguous, so search by name is avoided: recover the index from the
  // hosts_ vector layout using the node id ordering within construction.
  // Construction order guarantees hosts_ is sorted by (pod, edge, index).
  const auto it = std::lower_bound(hosts_.begin(), hosts_.end(), host);
  assert(it != hosts_.end() && *it == host);
  const auto idx = static_cast<std::size_t>(it - hosts_.begin());
  return static_cast<int>(idx / (static_cast<std::size_t>(half_) * half_));
}

NodeId FatTree::edge_of_host(NodeId host) const {
  const auto it = std::lower_bound(hosts_.begin(), hosts_.end(), host);
  assert(it != hosts_.end() && *it == host);
  const auto idx = static_cast<std::size_t>(it - hosts_.begin());
  const auto pod = idx / (static_cast<std::size_t>(half_) * half_);
  const auto edge = (idx / half_) % static_cast<std::size_t>(half_);
  return edges_[pod * static_cast<std::size_t>(half_) + edge];
}

NodeId FatTree::host(int pod, int edge, int index) const {
  return hosts_[(static_cast<std::size_t>(pod) * half_ + static_cast<std::size_t>(edge)) * half_ +
                static_cast<std::size_t>(index)];
}

NodeId FatTree::edge_switch(int pod, int index) const {
  return edges_[static_cast<std::size_t>(pod) * half_ + static_cast<std::size_t>(index)];
}

NodeId FatTree::agg_switch(int pod, int index) const {
  return aggs_[static_cast<std::size_t>(pod) * half_ + static_cast<std::size_t>(index)];
}

NodeId FatTree::core_switch(int index) const { return cores_[static_cast<std::size_t>(index)]; }

std::vector<Path> FatTree::paths(NodeId src, NodeId dst, std::size_t max_paths) const {
  assert(src != dst);
  if (max_paths == 0) return {};
  const NodeId src_edge = edge_of_host(src);
  const NodeId dst_edge = edge_of_host(dst);
  const int src_pod = pod_of_host(src);
  const int dst_pod = pod_of_host(dst);

  std::vector<Path> out;
  if (src_edge == dst_edge) {
    Path p;
    p.links = {graph_.link_between(src, src_edge), graph_.link_between(src_edge, dst)};
    out.push_back(std::move(p));
  } else if (src_pod == dst_pod) {
    // One path per aggregation switch in the pod.
    out.reserve(std::min<std::size_t>(max_paths, static_cast<std::size_t>(half_)));
    for (int a = 0; a < half_ && out.size() < max_paths; ++a) {
      const NodeId agg = agg_switch(src_pod, a);
      Path p;
      p.links = {graph_.link_between(src, src_edge), graph_.link_between(src_edge, agg),
                 graph_.link_between(agg, dst_edge), graph_.link_between(dst_edge, dst)};
      out.push_back(std::move(p));
    }
  } else {
    // One path per core switch: src -> edge -> agg(a) -> core(a,c) ->
    // agg(a) of dst pod -> dst edge -> dst.
    out.reserve(std::min<std::size_t>(max_paths, static_cast<std::size_t>(half_) * half_));
    for (int a = 0; a < half_ && out.size() < max_paths; ++a) {
      const NodeId src_agg = agg_switch(src_pod, a);
      const NodeId dst_agg = agg_switch(dst_pod, a);
      for (int c = 0; c < half_ && out.size() < max_paths; ++c) {
        const NodeId core = core_switch(a * half_ + c);
        Path p;
        p.links = {graph_.link_between(src, src_edge), graph_.link_between(src_edge, src_agg),
                   graph_.link_between(src_agg, core), graph_.link_between(core, dst_agg),
                   graph_.link_between(dst_agg, dst_edge), graph_.link_between(dst_edge, dst)};
        out.push_back(std::move(p));
      }
    }
  }
  for ([[maybe_unused]] const Path& p : out) assert(is_valid_path(graph_, p, src, dst));
  return out;
}

}  // namespace taps::topo
