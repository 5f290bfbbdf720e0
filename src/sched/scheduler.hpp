// Shared infrastructure for concrete schedulers: active-flow bookkeeping,
// flow-level ECMP path assignment, and max-min progressive filling (used by
// Fair Sharing, for spare-capacity redistribution in D3/Varys, and weighted
// by D2TCP).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace taps::sched {

/// Default cap on candidate paths considered per flow (fat-tree pairs can
/// have hundreds of equal-cost paths; see DESIGN.md).
inline constexpr std::size_t kDefaultMaxPaths = 16;

class ScheduleObserver;

// taps-threading: single-domain -- scheduler state advances under one simulation domain
class BaseScheduler : public sim::Scheduler {
 public:
  void bind(net::Network& net) override;

  void on_flow_finished(net::FlowId id, double now) override;

  /// Attach a decision observer (see sched/schedule_observer.hpp), e.g.
  /// sim::TimelineRecorder. Survives bind(), so it can be set once before a
  /// run. Pure observation: decisions are bit-identical with or without one
  /// attached. Pass nullptr to detach.
  void set_schedule_observer(ScheduleObserver* observer) { schedule_observer_ = observer; }
  [[nodiscard]] ScheduleObserver* schedule_observer() const { return schedule_observer_; }

 protected:
  /// Admit the task's currently-arriving flows (those still kPending with
  /// arrival <= now): route each with ECMP and mark it active. Later waves
  /// of the same task are admitted when their arrival event fires. Waves of
  /// a task that was rejected as a whole are declined outright.
  void admit_all_ecmp(net::TaskId id, double now);

  /// The task's flows that are arriving at `now` and not yet handled.
  [[nodiscard]] std::vector<net::FlowId> pending_wave(net::TaskId id, double now) const;

  /// Assign a deterministic hash-based ECMP path to one flow.
  void route_ecmp(net::Flow& f);

  /// Flows currently admitted and unfinished (pruned on demand).
  [[nodiscard]] std::vector<net::FlowId>& active_flows();

  /// Max-min fair ("progressive filling") allocation of `residual` link
  /// capacity among `flows`, *added* to each flow's current rate. `residual`
  /// is indexed by LinkId and is consumed in place. Finished flows and flows
  /// with at most kByteEpsilon bytes left take no share. Without `weights`
  /// every unfrozen flow grows by the same amount per round (Fair Sharing,
  /// D3's base rate, Varys's spare capacity); with `weights` (indexed by
  /// FlowId; D2TCP's deadline urgencies) each grows in proportion to its
  /// weight and flows of weight <= 0 take no share. Each flow's rate is
  /// written once, at the end. Bitwise equal to taps_oracle's
  /// progressive_fill_reference (DESIGN.md §7). `flows` must not repeat a
  /// flow.
  void progressive_fill(const std::vector<net::FlowId>& flows, std::vector<double>& residual,
                        const std::vector<double>* weights = nullptr);

  std::vector<net::FlowId> active_;
  // Scratch buffer reused across assign_rates calls (sized to link count).
  std::vector<double> residual_;

  /// progressive_fill's working set, reused across calls: O(flows + path
  /// links + links). Per fill flow (a flow that takes a share, in call
  /// order): its id, weight, accumulated rate and links (flat). Per link the
  /// fill crosses: its fill flows, as one range of `members`.
  // taps-threading: single-domain -- scratch of one scheduler's simulation domain
  struct FillScratch {
    std::vector<net::FlowId> flow;
    std::vector<double> weight;
    std::vector<double> rate;
    std::vector<topo::LinkId> path;          // every fill flow's links, flow after flow
    std::vector<std::uint32_t> path_begin;   // fill flow k: [path_begin[k], path_begin[k+1])
    std::vector<std::uint32_t> alive;        // unfrozen fill flows, in call order
    std::vector<char> frozen;                // per fill flow
    std::vector<std::uint32_t> members;      // fill flows per used link, call order
    std::vector<topo::LinkId> used;          // links of fill flows, first-seen order
    std::vector<topo::LinkId> scan;          // used links whose weight is still > 0
    std::vector<topo::LinkId> saturated;     // links at <= kEps after this round's debits
    // Indexed by LinkId, sized at bind().
    std::vector<double> link_weight;         // summed weight of unfrozen fill flows
    std::vector<std::uint32_t> link_begin;   // the link's range of `members`
    std::vector<std::uint32_t> link_end;
    std::vector<char> link_saturated;        // in `saturated`
  };
  FillScratch fill_;

 private:
  std::size_t max_paths_ = kDefaultMaxPaths;
  ScheduleObserver* schedule_observer_ = nullptr;
};

}  // namespace taps::sched
