// Reference implementations that prove the production paths equivalent, and
// the textbook planner helpers tests and microbenchmarks call; compiled into
// taps_oracle, never into taps_core.
//
// FullReplanOracle is Algorithm 1 written the obvious way: every replan
// sorts its flows EDF+SJF (sort_edf_sjf), plans them one by one through a
// fresh OccupancyMap with its own flat Algorithm 2 (flat_path_race) and
// applies the reject rule (apply_reject_rule) — no journal, no prefix
// adoption, no rate heap, no candidate tree. core::TapsScheduler must
// commit bitwise the same decisions, paths, slices and occupancy
// (tests/core/taps_incremental_prop_test.cpp, tests/common/taps_equiv.hpp).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/taps_scheduler.hpp"
#include "core/time_allocation.hpp"

namespace taps::core {

/// Union of the occupied sets of all links on `path` (the paper's T_ocp):
/// its complement is the time when the whole path is idle end-to-end.
[[nodiscard]] util::IntervalSet path_union(const OccupancyMap& occupancy,
                                           const topo::Path& path);

// taps-threading: thread-compatible -- value result, owned by its caller.
struct TimeAllocation {
  util::IntervalSet slices;  // empty when infeasible before `horizon`
  double completion = 0.0;   // end of last slice; meaningless when infeasible

  [[nodiscard]] bool feasible() const { return !slices.empty(); }
};

/// Algorithm 3 for one path: allocate `duration` seconds on `path` starting
/// at `now`, finishing no later than `horizon` (the flow's deadline).
/// Materializes the path's union restricted to the window a scan from `now`
/// can read — each link from its first interval with hi > now, up to the
/// horizon — with unite_ranges, then runs IdleScan over it. Returns an
/// infeasible result when the path lacks enough idle time before the
/// horizon.
///
/// `completion_bound` is IdleScan's branch-and-bound cutoff for the flat
/// race (only strictly-earlier completions replace the incumbent). A
/// returned feasible allocation is always the true earliest one and has
/// completion < completion_bound.
[[nodiscard]] TimeAllocation allocate_time(
    const OccupancyMap& occupancy, const topo::Path& path, double now, double duration,
    double horizon, double completion_bound = std::numeric_limits<double>::infinity());

/// allocate_time writing into a caller-owned `slices` set (cleared first, so
/// its capacity is reused across calls). Returns feasibility; `completion`
/// is set only when feasible, and `slices` is left empty on infeasibility
/// or abort. `scratch` (optional) reuses the merge buffers across calls.
[[nodiscard]] bool allocate_time_into(const OccupancyMap& occupancy, const topo::Path& path,
                                      double now, double duration, double horizon,
                                      double completion_bound, util::IntervalSet& slices,
                                      double& completion, TimeAllocScratch* scratch = nullptr);

/// The textbook Algorithm 3 (materialize T_ocp, then allocate_earliest).
/// Bit-identical results to allocate_time and to the planner's scans; slower
/// on fragmented occupancy.
[[nodiscard]] TimeAllocation allocate_time_reference(const OccupancyMap& occupancy,
                                                     const topo::Path& path, double now,
                                                     double duration, double horizon);

/// Algorithm 2 as a flat race: every candidate in index order, each pruned
/// by the max of its links' single-link bounds or else allocated in full
/// (allocate_time_into) with the best completion so far as its cutoff, so
/// only a strictly earlier completion replaces the incumbent. The reference
/// for plan_one_flow's candidate tree, which must pick the same path,
/// slices and completion bitwise. Does not commit.
[[nodiscard]] FlowPlan flat_path_race(const net::Network& net, const OccupancyMap& occupancy,
                                      net::FlowId fid, double now, const PlanConfig& config);

/// Plan every flow in `order` (the caller sorts by EDF+SJF) through
/// plan_one_flow, committing each feasible flow's slices into `occupancy`
/// before planning the next (the planner microbenchmarks time this).
[[nodiscard]] std::vector<FlowPlan> plan_flows(const net::Network& net, OccupancyMap& occupancy,
                                               std::span<const net::FlowId> order, double now,
                                               const PlanConfig& config,
                                               PlanScratch* scratch = nullptr);

/// Sort flow ids by the paper's scheduling discipline: EDF first (earlier
/// deadline), SJF tie-break (smaller remaining size), then flow id.
void sort_edf_sjf(const net::Network& net, std::vector<net::FlowId>& flows);

// taps-threading: single-domain -- scheduler state advances under one simulation domain
class FullReplanOracle : public sched::BaseScheduler {
 public:
  /// `fault_skip_occupy` is a test-only seeded mutation: planning erases
  /// that flow's grant from the trial map right after planning it, so later
  /// flows can be granted overlapping slices. The invariant checker's
  /// negative test proves it catches the resulting exclusivity breach.
  explicit FullReplanOracle(const TapsConfig& config = {},
                            net::FlowId fault_skip_occupy = net::kInvalidFlow)
      : config_(config), fault_skip_occupy_(fault_skip_occupy) {}

  [[nodiscard]] std::string name() const override { return "TAPS-full-replan"; }

  void bind(net::Network& net) override;
  void on_task_arrival(net::TaskId id, double now) override;
  void on_flow_finished(net::FlowId id, double now) override;
  /// Plain rescan: full link rate inside a committed slice, zero outside.
  /// No makeup transmission — under the fluid engine a flow never outlives
  /// its slices.
  double assign_rates(double now) override;

  [[nodiscard]] const util::IntervalSet& slices(net::FlowId id) const {
    return slices_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const OccupancyMap& occupancy() const { return occ_; }
  /// Decision counters (tasks_*, replans, replan_reverts, flows_planned,
  /// paths_evaluated, plan_commits, slice_grants, occupancy_trims); the
  /// rest stay zero.
  [[nodiscard]] const TapsCounters& counters() const { return counters_; }

 private:
  struct Attempt {
    std::vector<FlowPlan> plans;
    OccupancyMap occ;
    bool feasible = true;
  };

  /// Unfinished flows of admitted tasks, in no particular order.
  [[nodiscard]] std::vector<net::FlowId> unfinished();
  /// Sort `order` EDF+SJF and plan it through a fresh map.
  [[nodiscard]] Attempt plan(std::vector<net::FlowId> order, double now);
  void commit(Attempt&& attempt);
  void admit(net::TaskId id, const std::vector<net::FlowId>& wave);

  TapsConfig config_;
  net::FlowId fault_skip_occupy_;
  OccupancyMap occ_{0};                    // the last committed plan's map
  std::vector<util::IntervalSet> slices_;  // indexed by FlowId
  std::vector<net::FlowId> committed_;     // flows of the last committed plan
  std::vector<net::FlowId> retired_;       // spent flows whose slices clear on commit
  TapsCounters counters_;
  std::size_t arrivals_since_trim_ = 0;
};

}  // namespace taps::core
