// Reference implementations that exist only to prove the production paths
// equivalent; compiled into taps_oracle, never into taps_core.
//
// FullReplanOracle is Algorithm 1 written the obvious way: every replan
// sorts its flows EDF+SJF (sort_edf_sjf), plans them through a fresh
// OccupancyMap (plan_flows) and applies the reject rule
// (apply_reject_rule) — no journal, no prefix adoption, no rate heap.
// core::TapsScheduler must commit bitwise the same decisions, paths, slices
// and occupancy (tests/core/taps_incremental_prop_test.cpp,
// tests/common/taps_equiv.hpp).
#pragma once

#include <vector>

#include "core/taps_scheduler.hpp"

namespace taps::core {

/// The textbook Algorithm 3 (materialize T_ocp, then allocate_earliest).
/// Bit-identical results to allocate_time; slower on fragmented occupancy.
[[nodiscard]] TimeAllocation allocate_time_reference(const OccupancyMap& occupancy,
                                                     const topo::Path& path, double now,
                                                     double duration, double horizon);

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
  /// plan_commits, slice_grants, occupancy_trims); the rest stay zero.
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
