// Observation points for scheduler *decisions* (as opposed to
// sim::TransmitObserver, which sees what the data plane actually did).
//
// A ScheduleObserver attached to a sched::BaseScheduler hears about task
// admission outcomes, preemptions, and — for slice-scheduling policies like
// TAPS — every committed plan, flow by flow. sim::TimelineRecorder implements
// both observer interfaces and folds the two streams into one versioned
// timeline (docs/TIMELINE.md). Observation is strictly pure: schedulers emit
// the same decisions, bit for bit, with or without an observer attached
// (pinned by tests/timeline/timeline_identity_test.cpp).
//
// This header lives at the sched layer (not core) so BaseScheduler can hold
// the pointer while anything linking taps_sched — the TAPS core, the svc
// shards, the experiment driver — can attach an implementation.
#pragma once

#include <span>

#include "net/flow.hpp"
#include "topo/paths.hpp"
#include "util/interval_set.hpp"

namespace taps::sched {

/// One flow of a committed plan, viewed in committed order. The pointed-to
/// path/slices live in the scheduler and are only valid for the duration of
/// the on_plan_committed call — copy what you need.
// taps-threading: thread-compatible
struct CommittedFlowView {
  net::FlowId flow = net::kInvalidFlow;
  net::TaskId task = net::kInvalidTask;
  /// True when this commit changed the flow's route or slices relative to
  /// the previous commit (a fresh grant / re-grant); false when the entry
  /// was carried over verbatim — the same entries a full replan would flag
  /// (TapsCounters::slice_grants counts exactly these).
  bool regranted = false;
  const topo::Path* path = nullptr;
  const util::IntervalSet* slices = nullptr;
};

/// All hooks default to no-ops so observers implement only what they need.
class ScheduleObserver {
 public:
  virtual ~ScheduleObserver() = default;

  /// A task arrival reached the scheduler at `now` (before any decision).
  /// Fires once per wave, including waves of already-dead tasks.
  virtual void on_task_seen(net::TaskId /*id*/, double /*now*/) {}

  /// The arriving task (wave) was admitted at `now`.
  virtual void on_task_admitted(net::TaskId /*id*/, double /*now*/) {}

  /// The arriving task was rejected at `now` (reject rule said no, or a
  /// preemption attempt would have stranded a survivor).
  virtual void on_task_rejected(net::TaskId /*id*/, double /*now*/) {}

  /// Previously admitted `victim` was revoked at `now` to admit `by`.
  virtual void on_task_preempted(net::TaskId /*victim*/, net::TaskId /*by*/,
                                 double /*now*/) {}

  /// A full plan was committed at `now`: `plan` lists every flow of the
  /// committed schedule in EDF+SJF commit order. Entries with `regranted`
  /// carry new slices; the rest are unchanged since the previous commit.
  virtual void on_plan_committed(double /*now*/,
                                 std::span<const CommittedFlowView> /*plan*/) {}
};

}  // namespace taps::sched
