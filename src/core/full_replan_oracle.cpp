#include "core/full_replan_oracle.hpp"

#include <algorithm>

namespace taps::core {

using net::Flow;
using net::FlowId;
using net::FlowState;
using net::TaskId;
using net::TaskState;

util::IntervalSet path_union(const OccupancyMap& occupancy, const topo::Path& path) {
  util::IntervalSet out;
  for (const topo::LinkId lid : path.links) {
    const auto& set = occupancy.link(lid);
    if (!set.empty()) out = out.unite(set);
  }
  return out;
}

// Identical output to allocate_time_reference:
//
//  - Each link's range starts at its earliest-free hint (first interval
//    with hi > now); a dropped earlier interval can only retreat a merged
//    interval's lo, and allocate_earliest never reads structure at or below
//    `now` (the first surviving interval's lo is always <= now when it was
//    merged with a dropped one).
//  - Intervals with lo >= horizon are dropped: the scan takes idle time
//    only below the horizon. Those past completion_bound stay: they decide
//    whether an exact fit's rounding residue is forgiven.
//  - Union order is irrelevant (canonical interval-set form is unique), so
//    folding smallest-range-first matches path_union's link-order fold.
bool allocate_time_into(const OccupancyMap& occupancy, const topo::Path& path, double now,
                        double duration, double horizon, double completion_bound,
                        util::IntervalSet& slices, double& completion,
                        TimeAllocScratch* scratch) {
  slices.clear();
  if (duration <= 0.0 || horizon <= now) return false;
  TimeAllocScratch local_scratch;
  TimeAllocScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  sc.ranges.clear();
  for (const topo::LinkId lid : path.links) {
    sc.ranges.push_back(restricted_range(occupancy, lid, now, horizon));
  }
  unite_ranges(sc.ranges, sc.bufs[0], sc.bufs[1]);

  IdleScan scan(now, duration, horizon, completion_bound, &slices);
  for (const util::Interval& busy : sc.bufs[0]) {
    if (!scan.feed(busy)) break;
  }
  return scan.finish(completion);
}

TimeAllocation allocate_time(const OccupancyMap& occupancy, const topo::Path& path, double now,
                             double duration, double horizon, double completion_bound) {
  TimeAllocation out;
  double completion = 0.0;
  if (allocate_time_into(occupancy, path, now, duration, horizon, completion_bound, out.slices,
                         completion)) {
    out.completion = completion;
  }
  return out;
}

TimeAllocation allocate_time_reference(const OccupancyMap& occupancy, const topo::Path& path,
                                       double now, double duration, double horizon) {
  TimeAllocation out;
  if (duration <= 0.0 || horizon <= now) return out;
  const util::IntervalSet t_ocp = path_union(occupancy, path);
  out.slices = t_ocp.allocate_earliest(now, duration, horizon);
  if (!out.slices.empty()) out.completion = out.slices.back_end();
  return out;
}

FlowPlan flat_path_race(const net::Network& net, const OccupancyMap& occupancy, FlowId fid,
                        double now, const PlanConfig& config) {
  const Flow& f = net.flow(fid);
  FlowPlan plan;
  plan.flow = fid;
  const std::vector<topo::Path> candidates = candidate_paths(net, f, config);
  TimeAllocScratch scratch;
  util::IntervalSet trial;
  double best_completion = sim::kInfinity;
  for (const topo::Path& p : candidates) {
    double capacity = sim::kInfinity;
    for (const topo::LinkId lid : p.links) {
      capacity = std::min(capacity, net.link_capacity(lid));
    }
    const double duration = f.remaining / capacity;
    const double horizon = f.spec.deadline - config.guard_band;
    // The completion on any path is at least the max of its links'
    // single-link completions (union idle is a subset of each link's idle).
    double lower_bound = now;
    bool hopeless = false;
    for (const topo::LinkId lid : p.links) {
      lower_bound = std::max(lower_bound, pruning_link_bound(occupancy, lid, now, duration));
      if (lower_bound > horizon + kLbSlack || lower_bound > best_completion + kLbSlack) {
        hopeless = true;
        break;
      }
    }
    if (hopeless) continue;
    ++plan.paths_evaluated;
    double completion = 0.0;
    if (allocate_time_into(occupancy, p, now, duration, horizon, best_completion, trial,
                           completion, &scratch)) {
      best_completion = completion;
      plan.path = p;
      std::swap(plan.slices, trial);
      plan.completion = completion;
      plan.feasible = true;
    }
  }
  return plan;
}

std::vector<FlowPlan> plan_flows(const net::Network& net, OccupancyMap& occupancy,
                                 std::span<const FlowId> order, double now,
                                 const PlanConfig& config, PlanScratch* scratch) {
  std::vector<FlowPlan> plans;
  plans.reserve(order.size());
  for (const FlowId fid : order) {
    FlowPlan plan = plan_one_flow(net, occupancy, fid, now, config, scratch);
    if (plan.feasible) occupancy.occupy(plan.path, plan.slices);
    plans.push_back(std::move(plan));
  }
  return plans;
}

void sort_edf_sjf(const net::Network& net, std::vector<FlowId>& flows) {
  std::sort(flows.begin(), flows.end(), [&net](FlowId a, FlowId b) {
    const Flow& fa = net.flow(a);
    const Flow& fb = net.flow(b);
    if (fa.spec.deadline != fb.spec.deadline) return fa.spec.deadline < fb.spec.deadline;
    if (fa.remaining != fb.remaining) return fa.remaining < fb.remaining;
    return a < b;
  });
}

void FullReplanOracle::bind(net::Network& net) {
  BaseScheduler::bind(net);
  occ_ = OccupancyMap(net.graph().link_count());
  slices_.assign(net.flows().size(), util::IntervalSet{});
  committed_.clear();
  retired_.clear();
  counters_ = TapsCounters{};
  arrivals_since_trim_ = 0;
}

std::vector<FlowId> FullReplanOracle::unfinished() {
  std::vector<FlowId> out;
  for (const FlowId fid : active_flows()) {
    if (net_->flow(fid).remaining > sim::kByteEpsilon) out.push_back(fid);
  }
  return out;
}

FullReplanOracle::Attempt FullReplanOracle::plan(std::vector<FlowId> order, double now) {
  sort_edf_sjf(*net_, order);
  const PlanConfig config{.max_paths = config_.max_paths,
                          .ecmp_routing = config_.ecmp_routing,
                          .guard_band = config_.guard_band};
  Attempt attempt{.plans = {}, .occ = OccupancyMap(net_->graph().link_count()), .feasible = true};
  attempt.plans.reserve(order.size());
  for (const FlowId fid : order) {
    FlowPlan plan = flat_path_race(*net_, attempt.occ, fid, now, config);
    counters_.paths_evaluated += plan.paths_evaluated;
    // Seeded fault: the faulty flow's grant never reaches the trial map, so
    // later flows are planned against a map that does not hold it.
    if (plan.feasible && fid != fault_skip_occupy_) attempt.occ.occupy(plan.path, plan.slices);
    attempt.plans.push_back(std::move(plan));
  }
  ++counters_.replans;
  counters_.flows_planned += order.size();
  attempt.feasible = std::all_of(attempt.plans.begin(), attempt.plans.end(),
                                 [](const FlowPlan& p) { return p.feasible; });
  return attempt;
}

void FullReplanOracle::commit(Attempt&& attempt) {
  for (const FlowId fid : retired_) slices_[static_cast<std::size_t>(fid)].clear();
  retired_.clear();
  committed_.clear();
  for (FlowPlan& plan : attempt.plans) {
    Flow& f = net_->flow(plan.flow);
    util::IntervalSet& sl = slices_[static_cast<std::size_t>(plan.flow)];
    if (f.path.links != plan.path.links || sl != plan.slices) ++counters_.slice_grants;
    f.path = std::move(plan.path);
    sl = std::move(plan.slices);
    committed_.push_back(plan.flow);
  }
  occ_ = std::move(attempt.occ);
  ++counters_.plan_commits;
}

void FullReplanOracle::admit(TaskId id, const std::vector<FlowId>& wave) {
  net::Task& t = net_->task(id);
  if (t.state == TaskState::kPending) t.state = TaskState::kAdmitted;
  ++counters_.tasks_accepted;
  for (const FlowId fid : wave) {
    net_->flow(fid).state = FlowState::kActive;
    active_.push_back(fid);
  }
}

void FullReplanOracle::on_task_arrival(TaskId id, double now) {
  if (slices_.size() < net_->flows().size()) slices_.resize(net_->flows().size());
  const net::Task& t = net_->task(id);
  const std::vector<FlowId> wave = pending_wave(id, now);
  if (t.state == TaskState::kRejected || t.state == TaskState::kFailed) {
    for (const FlowId fid : wave) net_->flow(fid).state = FlowState::kRejected;
    return;
  }
  if (wave.empty()) return;

  if (config_.trim_interval != 0 && ++arrivals_since_trim_ >= config_.trim_interval) {
    arrivals_since_trim_ = 0;
    occ_.trim_before(now);
    for (auto& sl : slices_) sl.trim_before(now);
    ++counters_.occupancy_trims;
  }
  // Spent flows of the last plan whose slices all lie in the past leave the
  // slice table when this arrival commits.
  retired_.clear();
  for (const FlowId fid : committed_) {
    const Flow& f = net_->flow(fid);
    if (f.active() && f.remaining > sim::kByteEpsilon) continue;
    const util::IntervalSet& sl = slices_[static_cast<std::size_t>(fid)];
    if (!sl.empty() && sl.back_end() <= now) retired_.push_back(fid);
  }

  std::vector<FlowId> trial_order = unfinished();
  trial_order.insert(trial_order.end(), wave.begin(), wave.end());
  Attempt trial = plan(trial_order, now);
  const RejectOutcome outcome =
      apply_reject_rule(*net_, id, trial.plans, config_.preempt_policy);
  if (outcome.decision == Decision::kAccept) {
    admit(id, wave);
    commit(std::move(trial));
    return;
  }
  if (outcome.decision == Decision::kPreemptVictim) {
    std::vector<FlowId> order;
    for (const FlowId fid : trial_order) {
      if (net_->flow(fid).task() != outcome.victim) order.push_back(fid);
    }
    Attempt attempt = plan(std::move(order), now);
    if (attempt.feasible) {
      net_->reject_task(outcome.victim);
      ++counters_.tasks_preempted;
      admit(id, wave);
      commit(std::move(attempt));
      return;
    }
  }
  net_->reject_task(id);
  ++counters_.tasks_rejected;
  Attempt compacted = plan(unfinished(), now);
  if (compacted.feasible) {
    commit(std::move(compacted));
  } else {
    ++counters_.replan_reverts;
  }
}

void FullReplanOracle::on_flow_finished(FlowId id, double now) {
  BaseScheduler::on_flow_finished(id, now);
  const Flow& f = net_->flow(id);
  if (f.state != FlowState::kMissed) return;
  for (const FlowId sibling : net_->task(f.task()).spec.flows) {
    Flow& s = net_->flow(sibling);
    if (s.finished()) continue;
    s.state = FlowState::kRejected;
    s.set_rate(0.0);
    util::IntervalSet& sl = slices_[static_cast<std::size_t>(sibling)];
    if (std::find(committed_.begin(), committed_.end(), sibling) != committed_.end()) {
      OccupancyJournal unused;
      occ_.vacate(s.path, sl, unused);
    }
    sl.clear();
  }
}

double FullReplanOracle::assign_rates(double now) {
  double next_boundary = sim::kInfinity;
  for (const FlowId fid : active_flows()) {
    Flow& f = net_->flow(fid);
    const util::IntervalSet& sl = slices_[static_cast<std::size_t>(fid)];
    double rate = 0.0;
    if (sl.contains(now)) {
      rate = sim::kInfinity;
      for (const topo::LinkId lid : f.path.links) {
        rate = std::min(rate, net_->link_capacity(lid));
      }
    }
    f.set_rate(rate);
    next_boundary = std::min(next_boundary, sl.next_boundary(now));
  }
  return next_boundary;
}

}  // namespace taps::core
