// Algorithm 2 of the paper: PathCalculation(F).
//
// For each flow (in the caller-supplied EDF+SJF order), enumerate candidate
// paths, run TimeAllocation on each, keep the path with the earliest
// completion, and commit its slices into the shared occupancy map. Flows
// that cannot finish before their deadline on any candidate path get an
// infeasible plan and occupy nothing (TAPS never spends bandwidth on a flow
// it cannot finish).
#pragma once

#include <span>

#include "core/time_allocation.hpp"
#include "net/network.hpp"

namespace taps::core {

// taps-threading: thread-compatible
struct PlanConfig {
  /// Cap on candidate paths per flow (see DESIGN.md on fat-tree path counts).
  std::size_t max_paths = 16;
  /// Ablation knob: hash each flow onto ONE of its candidate paths (ECMP)
  /// instead of letting Algorithm 2 choose the earliest-completion path.
  /// Isolates how much of TAPS's advantage comes from centralized routing.
  bool ecmp_routing = false;
  /// Slack subtracted from every deadline when planning (seconds). The
  /// fluid model needs none; on a packet network the last packet arrives
  /// one store-and-forward pipeline after its slice ends, so exact-fit
  /// plans miss by microseconds unless the controller budgets for it.
  double guard_band = 0.0;
};

/// Caller-owned reusable planning state. Candidate paths depend only on a
/// flow's immutable (src, dst) and the fixed PlanConfig, yet Topology::paths
/// re-enumerates them on every call — which the old replan loop did for
/// every flow on every arrival. Keeping the scratch alive across replans
/// caches each flow's candidate list after its first planning. Also carries
/// the candidate race's trial slice set and the allocator merge buffers, so
/// a planning domain's entire scratch travels in one object (no hidden
/// `thread_local` state — the concurrency linter bans it).
// taps-threading: single-domain -- one instance per planning domain.
struct PlanScratch {
  /// Indexed by FlowId; an empty inner vector means "not yet computed"
  /// (paths() never legitimately returns zero candidates).
  std::vector<std::vector<topo::Path>> candidates;
  /// Trial slice set for the candidate-path race (swapped into the winning
  /// plan and recycled otherwise).
  util::IntervalSet trial;
  /// allocate_time_into's restricted-range and union-merge buffers.
  TimeAllocScratch time_alloc;

  void clear() { candidates.clear(); }
};

// taps-threading: thread-compatible
struct FlowPlan {
  net::FlowId flow = net::kInvalidFlow;
  topo::Path path;
  util::IntervalSet slices;
  double completion = 0.0;
  bool feasible = false;
};

/// Plan a single flow against the current occupancy (does not commit).
/// `scratch` (optional) caches the flow's candidate paths across calls.
[[nodiscard]] FlowPlan plan_one_flow(const net::Network& net, const OccupancyMap& occupancy,
                                     net::FlowId fid, double now, const PlanConfig& config,
                                     PlanScratch* scratch = nullptr);

/// Plan every flow in `order` (the caller sorts by EDF+SJF), committing each
/// feasible flow's slices into `occupancy` before planning the next.
[[nodiscard]] std::vector<FlowPlan> plan_flows(const net::Network& net, OccupancyMap& occupancy,
                                               std::span<const net::FlowId> order, double now,
                                               const PlanConfig& config,
                                               PlanScratch* scratch = nullptr);

/// Sort flow ids by the paper's scheduling discipline: EDF first (earlier
/// deadline), SJF tie-break (smaller remaining size), then flow id.
void sort_edf_sjf(const net::Network& net, std::vector<net::FlowId>& flows);

}  // namespace taps::core
