// Algorithm 2 of the paper: PathCalculation(F).
//
// For each flow (in the caller-supplied EDF+SJF order), enumerate candidate
// paths, run TimeAllocation on each, keep the path with the earliest
// completion (ties: lowest candidate index), and commit its slices into the
// shared occupancy map. Flows that cannot finish before their deadline on
// any candidate path get an infeasible plan and occupy nothing (TAPS never
// spends bandwidth on a flow it cannot finish).
//
// The answer is defined by that race; the search is a branch-and-bound over
// a two-level tree of the candidates (CandidateTree): links every candidate
// shares are merged once per flow, the links a run of candidates shares
// once per run, and a run whose shared union already finishes too late is
// pruned whole. The textbook flat race — every candidate's full union in
// index order — lives in taps_oracle (core::flat_path_race), and a property
// test pins the two bitwise.
#pragma once

#include <cstdint>
#include <span>

#include "core/time_allocation.hpp"
#include "net/network.hpp"

namespace taps::core {

/// Slack on every lower-bound prune (seconds). Single-link bounds carry
/// prefix-summation rounding and subtree bounds the rounding of their own
/// scan; a prune fires only past this slack, so it never cuts a candidate
/// the full evaluation could still pick.
inline constexpr double kLbSlack = 1e-6;

/// Lower bound, for pruning, on a `need`-second allocation's completion on
/// any path through `lid`, exceeding it by at most kLbSlack: taken for the
/// demand less kLbSlack, since at an exact fit the full demand's lands a
/// whole busy interval late (OccupancyMap::single_link_completion).
[[nodiscard]] inline double pruning_link_bound(const OccupancyMap& occupancy, topo::LinkId lid,
                                               double now, double need) {
  return occupancy.single_link_completion(lid, now, need - kLbSlack);
}

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

/// The search structure over one flow's candidate list, as link-position
/// masks (bit p = the p-th link of a path). The root is the positions every
/// candidate shares (both host links on a fat-tree). A group is a
/// contiguous run of candidates sharing their first non-root link, with the
/// non-root positions the whole run shares (the edge->agg and agg->edge
/// pair for inter-pod fat-tree flows); a member's leaf is the rest
/// (agg->core->agg). A list whose paths differ in length, or run past 64
/// links, is one group with an empty root: the flat race.
// taps-threading: thread-compatible -- scratch value owned by one planner.
struct CandidateTree {
  struct Group {
    std::uint32_t first = 0;  // candidate index range [first, last)
    std::uint32_t last = 0;
    std::uint64_t shared = 0;
  };

  std::uint64_t root = 0;
  std::vector<Group> groups;
};

/// Derive the tree of `candidates` (in their index order) into `tree`.
void build_candidate_tree(std::span<const topo::Path> candidates, CandidateTree& tree);

/// Caller-owned reusable planning state. Candidate paths depend only on a
/// flow's immutable (src, dst) and the fixed PlanConfig, yet Topology::paths
/// re-enumerates them on every call — which the old replan loop did for
/// every flow on every arrival. Keeping the scratch alive across replans
/// caches each flow's candidate list after its first planning. Also carries
/// the search's buffers (candidate tree, shared unions, trial slice set,
/// allocator merge buffers), so a planning domain's entire scratch travels
/// in one object (no hidden `thread_local` state — the concurrency linter
/// bans it).
// taps-threading: single-domain -- one instance per planning domain.
struct PlanScratch {
  /// Indexed by FlowId; an empty inner vector means "not yet computed"
  /// (paths() never legitimately returns zero candidates).
  std::vector<std::vector<topo::Path>> candidates;
  /// The planned flow's candidate tree, rebuilt on every plan: deriving it
  /// is a few hundred link comparisons, while caching it per flow beside
  /// `candidates` would hold ~100 B for every flow planned.
  CandidateTree tree;
  /// Trial slice set for the candidate race (swapped into the winning plan
  /// and recycled otherwise).
  util::IntervalSet trial;
  /// Restricted-range and union-merge buffers.
  TimeAllocScratch time_alloc;
  /// The root union, and one shared union per group.
  std::vector<util::Interval> root_union;
  std::vector<std::vector<util::Interval>> group_unions;
  /// Per-candidate durations and per-group (bound, single-link bound).
  std::vector<double> durations;
  struct GroupBound {
    double bound = 0.0;
    double link_bound = 0.0;
    std::uint32_t group = 0;
  };
  std::vector<GroupBound> group_bounds;

  void clear() { candidates.clear(); }
};

// taps-threading: thread-compatible
struct FlowPlan {
  net::FlowId flow = net::kInvalidFlow;
  topo::Path path;
  util::IntervalSet slices;
  double completion = 0.0;
  bool feasible = false;
  /// Effort, not part of the plan: candidates whose full union Algorithm 3
  /// scanned (subtree bound scans do not count).
  std::uint32_t paths_evaluated = 0;
};

/// The flow's candidate paths with the ECMP reduction applied (both depend
/// only on immutable flow data and `config`).
[[nodiscard]] std::vector<topo::Path> candidate_paths(const net::Network& net,
                                                      const net::Flow& f,
                                                      const PlanConfig& config);

/// Plan a single flow against the current occupancy (does not commit).
/// `scratch` (optional) caches the flow's candidates across calls.
[[nodiscard]] FlowPlan plan_one_flow(const net::Network& net, const OccupancyMap& occupancy,
                                     net::FlowId fid, double now, const PlanConfig& config,
                                     PlanScratch* scratch = nullptr);

}  // namespace taps::core
