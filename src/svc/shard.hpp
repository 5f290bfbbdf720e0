// One admission domain of the controller service: a Network + TapsScheduler
// pair driven in virtual time by its request stream. The pod-sharded service
// (svc::AdmissionService) owns several shards over the same topology; a pod
// shard only ever plans flows whose candidate paths stay inside its own
// pod's links, and the optional global domain plans the pod-spanning tasks
// under the service's cross-pod budget. Shards share no mutable state
// (each owns its Network), so they admit concurrently without locks.
//
// A shard is single-threaded by construction — the service guarantees at
// most one thread is inside process() at a time (one batch in flight, each
// shard's group handled by one worker). Everything here is deterministic:
// the same request sequence produces bitwise-identical responses and state,
// regardless of batching, threading, or registry compaction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/taps_scheduler.hpp"
#include "net/network.hpp"
#include "svc/request.hpp"
#include "topo/paths.hpp"

namespace taps::svc {

// taps-threading: thread-compatible
struct ShardConfig {
  core::TapsConfig taps;
  /// Rebuild the shard's task/flow registry every this many processed
  /// requests, dropping finished tasks (0 disables). Together with the
  /// scheduler's trim_interval this bounds memory on unbounded arrival
  /// streams; decisions are bit-identical with compaction on or off
  /// (pinned by tests/svc/svc_service_test.cpp and the equivalence
  /// property test).
  std::size_t compact_interval = 1024;
};

// taps-threading: thread-compatible
struct ShardStats {
  std::size_t processed = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;   // planner rejects
  std::size_t preempted = 0;  // victims revoked after acceptance
  std::size_t completed = 0;  // flows finished in virtual time
  std::size_t compactions = 0;
  std::size_t live_tasks = 0;
  std::size_t live_flows = 0;
  /// Registry sizes — with compaction on these stay bounded by
  /// compact_interval plus the live set instead of growing with the stream.
  std::size_t registered_tasks = 0;
  std::size_t registered_flows = 0;
  double clock = 0.0;
  core::TapsCounters taps;
};

// taps-threading: single-domain -- each shard is pinned to one worker at a time
class Shard {
 public:
  /// The topology must outlive the shard.
  Shard(const topo::Topology& topology, const ShardConfig& config);

  /// Admit or reject one validated request at its arrival time. Requests
  /// must come in non-decreasing `arrival` order (the service's submit path
  /// enforces this globally). Advances the shard's virtual clock, retiring
  /// flows whose pre-allocated slices have fully elapsed.
  [[nodiscard]] TaskResponse process(Seq seq, const TaskRequest& request);

  /// Advance virtual time without a new arrival (drain completions).
  void advance_to(double t);

  [[nodiscard]] ShardStats stats() const;
  [[nodiscard]] double virtual_time() const { return clock_; }
  [[nodiscard]] const net::Network& network() const { return *net_; }
  [[nodiscard]] const core::TapsScheduler& scheduler() const { return sched_; }

  /// Attach a decision observer (e.g. sim::TimelineRecorder) to the shard's
  /// scheduler. Pure observation — responses, fingerprints and audits stay
  /// bit-identical (pinned by tests/timeline/timeline_identity_test.cpp).
  /// Set while the shard is quiescent. Note: event task/flow ids are in the
  /// shard-local registry id space current at event time; registry
  /// compaction (compact_interval) renumbers live flows, so timelines that
  /// span a compaction mix id generations (docs/TIMELINE.md).
  void set_schedule_observer(sched::ScheduleObserver* observer) {
    sched_.set_schedule_observer(observer);
  }

  /// Deterministic full-precision (hexfloat) dump of the shard's committed
  /// state: two shards fed the same request sequence compare bitwise equal.
  /// Test/debug aid for the equivalence suites.
  [[nodiscard]] std::string fingerprint() const;

  /// Invariant oracle: every live flow holds canonical slices that lie
  /// within [arrival, deadline], are mutually exclusive per link and sit
  /// inside the scheduler's committed occupancy — all checked exactly — and
  /// carry its remaining bytes up to byte-integration slack. Returns a
  /// description of the first violation, or nullopt when silent.
  [[nodiscard]] std::optional<std::string> audit() const;

 private:
  /// A committed slice boundary of one flow.
  struct SliceEvent {
    double time = 0.0;
    net::FlowId fid = net::kInvalidFlow;
  };
  /// Min-heap order (std::push_heap/pop_heap): earliest time first, then
  /// lowest flow id.
  struct SliceEventAfter {
    bool operator()(const SliceEvent& a, const SliceEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.fid > b.fid;
    }
  };

  void maybe_compact();
  /// Queue the end of `fid`'s committed slices, and their start unless the
  /// flow has started or an earlier start is already queued.
  void track(net::FlowId fid);
  /// Drop the heap entries that no longer describe a live flow's slices.
  void prune();
  /// Admitted and unfinished: a flow of an admitted task that is not done.
  [[nodiscard]] bool live(const net::Flow& f) const;

  const topo::Topology* topo_;
  ShardConfig config_;
  std::unique_ptr<net::Network> net_;
  core::TapsScheduler sched_;
  double clock_ = 0.0;
  std::size_t arrivals_since_compact_ = 0;
  std::vector<Seq> task_seq_;  // local TaskId -> submission seq
  // Virtual-time events, fed from each commit's re-grants. An entry is
  // current while its time is the one recorded for its unfinished flow
  // below; others are dropped when they surface, or all at once when the
  // heaps have doubled since the last prune, which keeps them
  // proportional to the live set.
  std::vector<SliceEvent> ends_;    // min-heap of last-slice ends: completions
  std::vector<SliceEvent> starts_;  // min-heap of first-slice starts not yet passed
  std::size_t prune_at_ = 0;
  std::vector<double> queued_end_;    // per flow: its last-slice end (-inf: none)
  std::vector<double> queued_start_;  // per flow: its queued start (+inf: none, -inf: started)
  std::vector<net::FlowId> started_;  // flows whose first slice began before clock_
  std::vector<SliceEvent> done_;  // advance_to scratch
  std::size_t processed_ = 0;
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t preempted_ = 0;
  std::size_t completed_ = 0;
  std::size_t compactions_ = 0;
};

}  // namespace taps::svc
