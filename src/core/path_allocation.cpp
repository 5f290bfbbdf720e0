#include "core/path_allocation.hpp"

#include <algorithm>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace taps::core {

using net::Flow;
using net::FlowId;

namespace {

/// Compute (or fetch from `scratch`) the flow's candidate paths, with the
/// ECMP reduction already applied — both depend only on immutable flow data
/// and the fixed config, so caching them is observationally transparent.
std::vector<topo::Path> compute_candidates(const net::Network& net, const Flow& f,
                                           const PlanConfig& config) {
  auto candidates = net.topology().paths(f.spec.src, f.spec.dst, config.max_paths);
  if (config.ecmp_routing && candidates.size() > 1) {
    const std::uint64_t h = util::hash_combine(static_cast<std::uint64_t>(f.id()) + 1,
                                               static_cast<std::uint64_t>(f.spec.src));
    topo::Path chosen = topo::pick_ecmp(candidates, h);
    candidates.assign(1, std::move(chosen));
  }
  return candidates;
}

const std::vector<topo::Path>& candidate_paths(const net::Network& net, const Flow& f,
                                               const PlanConfig& config, PlanScratch* scratch,
                                               std::vector<topo::Path>& fallback) {
  if (scratch == nullptr) {
    // Scratch-less callers (tests, one-off plans) pay a per-call compute
    // into their stack-owned buffer; the scheduler always passes scratch.
    fallback = compute_candidates(net, f, config);
    return fallback;
  }
  const auto idx = static_cast<std::size_t>(f.id());
  if (scratch->candidates.size() <= idx) scratch->candidates.resize(net.flows().size());
  auto& cached = scratch->candidates[idx];
  if (cached.empty()) cached = compute_candidates(net, f, config);
  return cached;
}

}  // namespace

FlowPlan plan_one_flow(const net::Network& net, const OccupancyMap& occupancy, FlowId fid,
                       double now, const PlanConfig& config, PlanScratch* scratch) {
  const Flow& f = net.flow(fid);
  FlowPlan plan;
  plan.flow = fid;

  std::vector<topo::Path> fallback_candidates;
  const std::vector<topo::Path>& candidates =
      candidate_paths(net, f, config, scratch, fallback_candidates);
  PlanScratch local_scratch;
  PlanScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  double best_completion = sim::kInfinity;
  for (const topo::Path& p : candidates) {
    // The paper assumes uniform link bandwidth; transfer time is computed at
    // the path's bottleneck capacity to stay correct on non-uniform graphs.
    double capacity = sim::kInfinity;
    for (const topo::LinkId lid : p.links) {
      capacity = std::min(capacity, net.link_capacity(lid));
    }
    const double duration = f.remaining / capacity;
    const double horizon = f.spec.deadline - config.guard_band;
    // Candidate pruning, cheapest test first: the completion on any path is
    // at least the max of its links' single-link completions (union idle is
    // a subset of each link's idle), so a candidate whose lower bound cannot
    // beat the incumbent — or fit the deadline — is skipped without a sweep.
    // kLbSlack absorbs the bound's prefix-summation rounding: skips trigger
    // only past the slack, so they never cut a candidate the full evaluation
    // could still pick, and the chosen plan stays bit-identical to
    // evaluating every candidate with the reference allocator (pinned by
    // tests/core/occupancy_equiv_prop_test.cpp).
    constexpr double kLbSlack = 1e-6;
    double lower_bound = now;
    bool hopeless = false;
    for (const topo::LinkId lid : p.links) {
      lower_bound = std::max(lower_bound, occupancy.single_link_completion(lid, now, duration));
      if (lower_bound > horizon + kLbSlack || lower_bound > best_completion + kLbSlack) {
        hopeless = true;
        break;
      }
    }
    if (hopeless) continue;
    // best_completion doubles as the fused allocator's branch-and-bound
    // cutoff: a candidate that provably cannot beat the best so far aborts
    // its scan early, and any feasible result is a strict improvement — so
    // the plan is identical to evaluating every candidate in full. The trial
    // set is swapped in on improvement and recycled otherwise, keeping the
    // candidate race free of steady-state allocations.
    util::IntervalSet& trial = sc.trial;
    double completion = 0.0;
    if (allocate_time_into(occupancy, p, now, duration, horizon, best_completion, trial,
                           completion, &sc.time_alloc)) {
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

}  // namespace taps::core
