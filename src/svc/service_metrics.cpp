#include "svc/service_metrics.hpp"

#include <algorithm>
#include <cstddef>
#include <string>

namespace taps::svc {

// aggregate() sums every TapsCounters field by hand; a new counter changes
// this size and must be added there (and to the aggregate test) first.
static_assert(sizeof(core::TapsCounters) == 17 * sizeof(std::size_t),
              "TapsCounters changed: update svc::aggregate()");

ShardStats aggregate(const std::vector<ShardStats>& shards) {
  ShardStats total;
  for (const ShardStats& s : shards) {
    total.processed += s.processed;
    total.accepted += s.accepted;
    total.rejected += s.rejected;
    total.preempted += s.preempted;
    total.completed += s.completed;
    total.compactions += s.compactions;
    total.live_tasks += s.live_tasks;
    total.live_flows += s.live_flows;
    total.registered_tasks += s.registered_tasks;
    total.registered_flows += s.registered_flows;
    total.clock = std::max(total.clock, s.clock);
    total.taps.tasks_accepted += s.taps.tasks_accepted;
    total.taps.tasks_rejected += s.taps.tasks_rejected;
    total.taps.tasks_preempted += s.taps.tasks_preempted;
    total.taps.replans += s.taps.replans;
    total.taps.replan_reverts += s.taps.replan_reverts;
    total.taps.incremental_sorts += s.taps.incremental_sorts;
    total.taps.full_sorts += s.taps.full_sorts;
    total.taps.flows_planned += s.taps.flows_planned;
    total.taps.paths_evaluated += s.taps.paths_evaluated;
    total.taps.cross_arrival_reuse_flows += s.taps.cross_arrival_reuse_flows;
    total.taps.checkpoint_reuse_flows += s.taps.checkpoint_reuse_flows;
    total.taps.session_restarts += s.taps.session_restarts;
    total.taps.occupancy_trims += s.taps.occupancy_trims;
    total.taps.plan_commits += s.taps.plan_commits;
    total.taps.slice_grants += s.taps.slice_grants;
    total.taps.pod_fast_rejects += s.taps.pod_fast_rejects;
    total.taps.global_fallbacks += s.taps.global_fallbacks;
  }
  return total;
}

std::vector<ShardStats> shard_stats(const AdmissionService& service) {
  std::vector<ShardStats> out;
  out.reserve(service.shard_count());
  for (std::size_t i = 0; i < service.shard_count(); ++i) {
    out.push_back(service.shard(i).stats());
  }
  return out;
}

metrics::Table stats_table(const ServiceStats& service, const std::vector<ShardStats>& shards) {
  const ShardStats total = aggregate(shards);
  metrics::Table table({"metric", "value"});
  table.row("submitted", service.submitted);
  table.row("enqueued", service.enqueued);
  table.row("cross_pod_enqueued", service.cross_pod_enqueued);
  table.row("responses", service.responses);
  table.row("accepted", service.accepted);
  table.row("preemptions", service.preemptions);
  table.row("batches", service.batches);
  table.row("max_queue_depth", service.max_queue_depth);
  for (std::size_t r = 0; r < kReasonCount; ++r) {
    if (service.by_reason[r] == 0) continue;
    table.row(std::string("reason/") + to_string(static_cast<Reason>(r)), service.by_reason[r]);
  }
  for (std::size_t b = 0; b < kBatchHistBuckets; ++b) {
    if (service.batch_hist[b] == 0) continue;
    table.row("batch_hist/ge_" + std::to_string(std::size_t{1} << b), service.batch_hist[b]);
  }
  table.row("shards", shards.size());
  table.row("virtual_clock", total.clock);
  table.row("flows_completed", total.completed);
  table.row("live_tasks", total.live_tasks);
  table.row("registered_tasks", total.registered_tasks);
  table.row("compactions", total.compactions);
  if (total.clock > 0.0) {
    table.row("admissions_per_virtual_sec",
              static_cast<double>(total.accepted) / total.clock);
  }
  table.row("taps/replans", total.taps.replans);
  table.row("taps/flows_planned", total.taps.flows_planned);
  table.row("taps/paths_evaluated", total.taps.paths_evaluated);
  table.row("taps/prefix_reuse_flows",
            total.taps.cross_arrival_reuse_flows + total.taps.checkpoint_reuse_flows);
  table.row("taps/occupancy_trims", total.taps.occupancy_trims);
  return table;
}

metrics::RunMetrics to_run_metrics(const ServiceStats& service,
                                   const std::vector<ShardStats>& shards) {
  const ShardStats total = aggregate(shards);
  metrics::RunMetrics m;
  m.tasks_total = total.processed;
  m.tasks_completed = total.accepted - total.preempted;
  m.tasks_rejected = total.rejected + total.preempted;
  m.task_completion_ratio =
      total.processed == 0
          ? 0.0
          : static_cast<double>(m.tasks_completed) / static_cast<double>(total.processed);
  m.flows_completed = total.completed;
  m.replans = total.taps.replans;
  m.flows_planned = total.taps.flows_planned;
  m.paths_evaluated = total.taps.paths_evaluated;
  m.prefix_reuse_flows = total.taps.cross_arrival_reuse_flows + total.taps.checkpoint_reuse_flows;
  const double denom = static_cast<double>(m.prefix_reuse_flows + m.flows_planned);
  m.prefix_reuse_ratio = denom == 0.0 ? 0.0 : static_cast<double>(m.prefix_reuse_flows) / denom;
  m.plan_commits = total.taps.plan_commits;
  m.preemptions = total.taps.tasks_preempted;
  m.slice_grants = total.taps.slice_grants;
  // Queue-level rejects (malformed, overload, ...) never reach a shard, so
  // service.responses can exceed tasks_total; the reason breakdown in
  // stats_table carries that detail.
  (void)service;
  return m;
}

}  // namespace taps::svc
