#include "sched/progressive_fill_reference.hpp"

#include <algorithm>

#include "sim/simulator.hpp"

namespace taps::sched {

using net::Flow;
using net::FlowId;

namespace {

void fill_unweighted(net::Network& net, const std::vector<FlowId>& flows,
                     std::vector<double>& residual) {
  // Water-filling: raise every unfrozen flow's share uniformly until a link
  // saturates; freeze the flows crossing it; repeat. At least one link
  // saturates per round, so rounds <= number of distinct used links.
  constexpr double kEps = 1e-9;
  std::vector<int> link_flow_count(net.graph().link_count(), 0);

  std::vector<FlowId> alive;
  alive.reserve(flows.size());
  std::vector<topo::LinkId> used_links;
  used_links.reserve(link_flow_count.size());
  for (const FlowId fid : flows) {
    const Flow& f = net.flow(fid);
    if (f.finished() || f.remaining <= sim::kByteEpsilon) continue;
    alive.push_back(fid);
    for (const topo::LinkId lid : f.path.links) {
      if (link_flow_count[static_cast<std::size_t>(lid)]++ == 0) used_links.push_back(lid);
    }
  }

  while (!alive.empty()) {
    // Bottleneck share: the smallest per-flow increment that saturates a link.
    double share = sim::kInfinity;
    for (const topo::LinkId lid : used_links) {
      const auto i = static_cast<std::size_t>(lid);
      if (link_flow_count[i] > 0) {
        share = std::min(share, residual[i] / link_flow_count[i]);
      }
    }
    if (share == sim::kInfinity) break;  // no alive flow crosses any link (impossible)
    share = std::max(share, 0.0);

    for (const FlowId fid : alive) {
      const Flow& f = net.flow(fid);
      f.set_rate(f.rate + share);
      for (const topo::LinkId lid : f.path.links) {
        residual[static_cast<std::size_t>(lid)] -= share;
      }
    }
    // Freeze flows crossing any saturated link.
    std::vector<FlowId> still_alive;
    still_alive.reserve(alive.size());
    for (const FlowId fid : alive) {
      const Flow& f = net.flow(fid);
      bool frozen = false;
      for (const topo::LinkId lid : f.path.links) {
        if (residual[static_cast<std::size_t>(lid)] <= kEps) {
          frozen = true;
          break;
        }
      }
      if (frozen) {
        for (const topo::LinkId lid : f.path.links) {
          --link_flow_count[static_cast<std::size_t>(lid)];
        }
      } else {
        still_alive.push_back(fid);
      }
    }
    if (still_alive.size() == alive.size()) {
      // Numerical guard: no flow froze although a link reported saturation.
      break;
    }
    alive = std::move(still_alive);
  }
}

void fill_weighted(net::Network& net, const std::vector<FlowId>& flows,
                   std::vector<double>& residual, const std::vector<double>& weights) {
  constexpr double kEps = 1e-9;
  std::vector<double> link_weight(net.graph().link_count(), 0.0);

  std::vector<FlowId> alive;
  alive.reserve(flows.size());
  std::vector<topo::LinkId> used_links;
  for (const FlowId fid : flows) {
    const Flow& f = net.flow(fid);
    if (f.finished() || f.remaining <= sim::kByteEpsilon) continue;
    if (weights[static_cast<std::size_t>(fid)] <= 0.0) continue;
    alive.push_back(fid);
    for (const topo::LinkId lid : f.path.links) {
      const auto i = static_cast<std::size_t>(lid);
      if (link_weight[i] == 0.0) used_links.push_back(lid);
      link_weight[i] += weights[static_cast<std::size_t>(fid)];
    }
  }

  while (!alive.empty()) {
    // Smallest per-unit-weight increment that saturates some link.
    double unit = sim::kInfinity;
    for (const topo::LinkId lid : used_links) {
      const auto i = static_cast<std::size_t>(lid);
      if (link_weight[i] > 0.0) unit = std::min(unit, residual[i] / link_weight[i]);
    }
    if (unit == sim::kInfinity) break;
    unit = std::max(unit, 0.0);

    for (const FlowId fid : alive) {
      const double inc = unit * weights[static_cast<std::size_t>(fid)];
      const Flow& f = net.flow(fid);
      f.set_rate(f.rate + inc);
      for (const topo::LinkId lid : f.path.links) {
        residual[static_cast<std::size_t>(lid)] -= inc;
      }
    }
    std::vector<FlowId> still_alive;
    still_alive.reserve(alive.size());
    for (const FlowId fid : alive) {
      const Flow& f = net.flow(fid);
      bool frozen = false;
      for (const topo::LinkId lid : f.path.links) {
        if (residual[static_cast<std::size_t>(lid)] <= kEps) {
          frozen = true;
          break;
        }
      }
      if (frozen) {
        for (const topo::LinkId lid : f.path.links) {
          link_weight[static_cast<std::size_t>(lid)] -= weights[static_cast<std::size_t>(fid)];
        }
      } else {
        still_alive.push_back(fid);
      }
    }
    if (still_alive.size() == alive.size()) break;  // numerical guard
    alive = std::move(still_alive);
  }
}

}  // namespace

void progressive_fill_reference(net::Network& net, const std::vector<FlowId>& flows,
                                std::vector<double>& residual,
                                const std::vector<double>* weights) {
  if (weights == nullptr) {
    fill_unweighted(net, flows, residual);
  } else {
    fill_weighted(net, flows, residual, *weights);
  }
}

}  // namespace taps::sched
