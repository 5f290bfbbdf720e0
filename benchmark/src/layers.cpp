#include "layers.hpp"

#include <stdexcept>
#include <string>


namespace taps_bench {

namespace {

// Name and unit of every per-layer metric, grouped by module. `_us` on a
// call name is the mean self time per call; sim.self_us is a total.
constexpr std::pair<const char*, const char*> kTable[] = {
    // svc: the service front end, timed around its public calls.
    {"svc.submit_us", "us"},
    {"svc.pump_us", "us"},
    {"svc.take_us", "us"},
    {"svc.dispatch_self_us", "us"},
    {"svc.batches", "count"},
    {"svc.batch_size_mean", "count"},
    {"svc.queue_depth_max", "count"},
    {"svc.cross_pod_share", "ratio"},
    {"svc.reject.planner", "count"},
    {"svc.reject.budget", "count"},
    {"svc.reject.queue_full", "count"},
    {"gen.late_p99_us", "us"},
    {"gen.late_max_us", "us"},
    // svc/shard: standalone Shard replay plus ShardStats.
    {"shard.process_us", "us"},
    {"shard.process_tail_us", "us"},
    {"shard.compactions", "count"},
    {"shard.live_flows", "count"},
    {"shard.registered_flows", "count"},
    // core: TapsCounters summed over shards.
    {"core.replans", "count"},
    {"core.flows_planned_per_decision", "count"},
    {"core.prefix_reuse_ratio", "ratio"},
    {"core.flows_reused", "count"},
    {"core.flows_planned", "count"},
    {"core.session_restarts", "count"},
    {"core.replan_reverts", "count"},
    {"core.full_sorts", "count"},
    {"core.plan_commits", "count"},
    {"core.slice_grants", "count"},
    {"core.preemptions", "count"},
    {"core.pod_fast_rejects", "count"},
    {"core.global_fallbacks", "count"},
    {"core.occupancy_trims", "count"},
    // sched: the benchmark's Scheduler decorator.
    {"sched.on_task_arrival_us", "us"},
    {"sched.assign_rates_us", "us"},
    {"sched.on_flow_finished_us", "us"},
    {"sched.assign_rates_calls", "count"},
    {"sched.FairSharing.wall_s", "s"},
    {"sched.D3.wall_s", "s"},
    {"sched.PDQ.wall_s", "s"},
    {"sched.Baraat.wall_s", "s"},
    {"sched.Varys.wall_s", "s"},
    {"sched.D2TCP.wall_s", "s"},
    // sim: FluidSimulator::run minus the decorator, plus SimStats/SimEffort.
    {"sim.self_us", "us"},
    {"sim.events", "count"},
    {"sim.us_per_event", "us"},
    {"sim.flows_touched", "count"},
    {"sim.lazy_skips", "count"},
    {"sim.heap_invalidations", "count"},
    {"sim.rate_dirty", "count"},
    // Set-up split.
    {"topo.build_us", "us"},
    {"net.register_us", "us"},
    {"svc.construct_us", "us"},
    // The traced pass itself.
    {"trace.decisions", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.self_sum_ratio", "ratio"},
};

}  // namespace

Layers::Layers() {
  for (const auto& [name, unit] : kTable) table_.push_back({name, 0.0, unit});
}

void Layers::set(std::string_view name, double value) {
  for (Metric& m : table_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + std::string(name));
}

void Layers::add_service(const svc::ServiceStats& stats,
                         const std::vector<svc::ShardStats>& shards, std::size_t decisions) {
  const auto count = [](std::size_t v) { return static_cast<double>(v); };
  const auto reason = [&](svc::Reason r) {
    return count(stats.by_reason[static_cast<std::size_t>(r)]);
  };
  set("svc.batches", count(stats.batches));
  set("svc.batch_size_mean",
      stats.batches == 0 ? 0.0 : count(stats.enqueued) / count(stats.batches));
  set("svc.queue_depth_max", count(stats.max_queue_depth));
  set("svc.cross_pod_share",
      stats.submitted == 0 ? 0.0 : count(stats.cross_pod_enqueued) / count(stats.submitted));
  set("svc.reject.planner", reason(svc::Reason::kPlannerReject));
  set("svc.reject.budget", reason(svc::Reason::kBudgetExhausted));
  set("svc.reject.queue_full", reason(svc::Reason::kQueueFull));

  // Summed here field by field: svc::aggregate leaves plan_commits and
  // slice_grants out of its TapsCounters sum.
  svc::ShardStats all;
  core::TapsCounters& c = all.taps;
  for (const svc::ShardStats& s : shards) {
    all.compactions += s.compactions;
    all.live_flows += s.live_flows;
    all.registered_flows += s.registered_flows;
    c.replans += s.taps.replans;
    c.flows_planned += s.taps.flows_planned;
    c.cross_arrival_reuse_flows += s.taps.cross_arrival_reuse_flows;
    c.checkpoint_reuse_flows += s.taps.checkpoint_reuse_flows;
    c.session_restarts += s.taps.session_restarts;
    c.replan_reverts += s.taps.replan_reverts;
    c.full_sorts += s.taps.full_sorts;
    c.plan_commits += s.taps.plan_commits;
    c.slice_grants += s.taps.slice_grants;
    c.tasks_preempted += s.taps.tasks_preempted;
    c.pod_fast_rejects += s.taps.pod_fast_rejects;
    c.global_fallbacks += s.taps.global_fallbacks;
    c.occupancy_trims += s.taps.occupancy_trims;
  }
  set("shard.compactions", count(all.compactions));
  set("shard.live_flows", count(all.live_flows));
  set("shard.registered_flows", count(all.registered_flows));

  const std::size_t reused = c.cross_arrival_reuse_flows + c.checkpoint_reuse_flows;
  set("core.replans", count(c.replans));
  set("core.flows_planned_per_decision",
      decisions == 0 ? 0.0 : count(c.flows_planned) / count(decisions));
  set("core.prefix_reuse_ratio",
      reused + c.flows_planned == 0 ? 0.0 : count(reused) / count(reused + c.flows_planned));
  set("core.flows_reused", count(reused));
  set("core.flows_planned", count(c.flows_planned));
  set("core.session_restarts", count(c.session_restarts));
  set("core.replan_reverts", count(c.replan_reverts));
  set("core.full_sorts", count(c.full_sorts));
  set("core.plan_commits", count(c.plan_commits));
  set("core.slice_grants", count(c.slice_grants));
  set("core.preemptions", count(c.tasks_preempted));
  set("core.pod_fast_rejects", count(c.pod_fast_rejects));
  set("core.global_fallbacks", count(c.global_fallbacks));
  set("core.occupancy_trims", count(c.occupancy_trims));
  set("trace.decisions", count(decisions));
}

void Layers::emit(Result& out) const {
  for (const Metric& m : table_) out.metric(m.name, m.value, m.unit);
}

}  // namespace taps_bench
