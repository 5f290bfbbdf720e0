// Topology interface and generic path enumeration.
//
// A Topology owns a Graph plus its host list and knows how to enumerate the
// candidate routing paths between two hosts. Structured topologies (trees,
// fat-trees) construct paths analytically; GenericTopology falls back to
// all-shortest-paths enumeration over the BFS distance DAG.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "topo/graph.hpp"
#include "topo/pods.hpp"

namespace taps::topo {

class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] const std::vector<NodeId>& hosts() const { return hosts_; }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

  /// Pod metadata for the sharded admission service, or nullptr when the
  /// topology has no pod structure.
  [[nodiscard]] virtual const PodMap* pods() const { return nullptr; }

  /// Candidate routing paths from host `src` to host `dst` (src != dst),
  /// at most `max_paths` of them, in a deterministic order.
  [[nodiscard]] virtual std::vector<Path> paths(NodeId src, NodeId dst,
                                                std::size_t max_paths) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  Graph graph_;
  std::vector<NodeId> hosts_;
};

/// All shortest paths from src to dst in `g`, at most `max_paths`,
/// enumerated deterministically (lexicographic in link id order).
[[nodiscard]] std::vector<Path> all_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                                   std::size_t max_paths);

/// Pick one path from a non-empty candidate list by hash (flow-level ECMP).
[[nodiscard]] const Path& pick_ecmp(const std::vector<Path>& candidates, std::uint64_t hash);

/// Arbitrary-graph topology using BFS all-shortest-paths enumeration.
class GenericTopology final : public Topology {
 public:
  GenericTopology(Graph graph, std::vector<NodeId> hosts, std::string name = "generic");

  [[nodiscard]] std::vector<Path> paths(NodeId src, NodeId dst,
                                        std::size_t max_paths) const override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
};

}  // namespace taps::topo
