// End-of-run metrics matching the paper's evaluation (Sec. V-A):
//   - task completion ratio: tasks whose flows ALL met the deadline / tasks;
//   - flow completion ratio: flows completed before deadline / flows,
//     regardless of their task's fate;
//   - application flow throughput: bytes of flows completed before deadline
//     / total workload bytes (the size-weighted counterpart);
//   - wasted bandwidth ratio: bytes actually transmitted by flows that did
//     NOT complete / total workload bytes (Fig. 8's definition).
#pragma once

#include <cstddef>

#include "net/network.hpp"

namespace taps::metrics {

struct RunMetrics {
  std::size_t tasks_total = 0;
  std::size_t tasks_completed = 0;
  std::size_t tasks_rejected = 0;
  std::size_t flows_total = 0;
  std::size_t flows_completed = 0;

  double task_completion_ratio = 0.0;
  double flow_completion_ratio = 0.0;
  double app_throughput = 0.0;        // size-weighted flow completion
  double task_size_ratio = 0.0;       // bytes in fully-completed tasks / total
  double wasted_bandwidth_ratio = 0.0;

  double total_bytes = 0.0;
  double useful_bytes = 0.0;  // bytes of flows completed before deadline
  double wasted_bytes = 0.0;  // bytes sent by flows that did not complete

  // Planner effort, copied from TapsCounters by the experiment driver (all
  // zero for schedulers without a global replan; collect() never fills them).
  std::size_t replans = 0;
  std::size_t flows_planned = 0;      // plan_one_flow calls actually paid for
  std::size_t paths_evaluated = 0;    // candidate unions Algorithm 3 scanned in full
  std::size_t prefix_reuse_flows = 0; // cross-arrival adoptions + checkpoint resumes
  double prefix_reuse_ratio = 0.0;    // reused / (reused + planned)

  // Decision/timeline counters, also copied from TapsCounters by the
  // experiment driver. Observer- and mode-independent: the values are
  // identical with or without a sim::TimelineRecorder attached and under
  // full or incremental replanning (docs/TIMELINE.md).
  std::size_t plan_commits = 0;  // arrivals that changed the committed schedule
  std::size_t preemptions = 0;   // admitted tasks revoked to admit a newcomer
  std::size_t slice_grants = 0;  // per-flow (re)grants across all commits

  // Simulation-engine effort, copied from sim::SimStats by the experiment
  // driver (collect() never fills them). Unlike everything above, these are
  // engine-dependent by design — sim_events is the shared event count, the
  // rest mirror sim::SimEffort — so engine-equivalence checks must ignore
  // them (sweep CSVs place them in trailing columns for exactly that reason).
  std::size_t sim_events = 0;              // event-loop iterations
  std::size_t sim_flows_touched = 0;       // per-flow visits in the hot loops
  std::size_t sim_lazy_skips = 0;          // active-flow visits avoided vs a rescan
  std::size_t sim_heap_invalidations = 0;  // stale deadline-heap entries dropped
  std::size_t sim_rate_dirty = 0;          // rate-dirty entries drained from the arena
};

[[nodiscard]] RunMetrics collect(const net::Network& net);

}  // namespace taps::metrics
