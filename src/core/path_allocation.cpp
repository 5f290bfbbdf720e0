#include "core/path_allocation.hpp"

#include <algorithm>
#include <cmath>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace taps::core {

using net::Flow;
using net::FlowId;
using Range = TimeAllocScratch::Range;

namespace {

constexpr std::size_t kMaskBits = 64;

bool in_mask(std::uint64_t mask, std::size_t pos) {
  return pos < kMaskBits && ((mask >> pos) & 1U) != 0;
}

/// The flow's candidate paths, computed on first use and cached in
/// `scratch` — they depend only on immutable flow data and the fixed config,
/// so caching them is observationally transparent.
const std::vector<topo::Path>& cached_candidates(const net::Network& net, const Flow& f,
                                                 const PlanConfig& config, PlanScratch* scratch,
                                                 std::vector<topo::Path>& fallback) {
  if (scratch == nullptr) {
    // Scratch-less callers (tests, one-off plans) pay a per-call compute
    // into their stack-owned buffer; the scheduler always passes scratch.
    fallback = candidate_paths(net, f, config);
    return fallback;
  }
  const auto idx = static_cast<std::size_t>(f.id());
  if (scratch->candidates.size() <= idx) scratch->candidates.resize(net.flows().size());
  auto& cached = scratch->candidates[idx];
  if (cached.empty()) cached = candidate_paths(net, f, config);
  return cached;
}

/// Link `lid`'s occupancy from the first interval with hi > now on; the
/// scans that read it stop at the horizon.
Range link_tail(const OccupancyMap& occupancy, topo::LinkId lid, double now) {
  const auto& ivs = occupancy.link(lid).intervals();
  return Range{ivs.data() + occupancy.first_index_after(lid, now), ivs.data() + ivs.size()};
}

Range whole(const std::vector<util::Interval>& ivs) {
  return Range{ivs.data(), ivs.data() + ivs.size()};
}

}  // namespace

std::vector<topo::Path> candidate_paths(const net::Network& net, const Flow& f,
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

void build_candidate_tree(std::span<const topo::Path> candidates, CandidateTree& tree) {
  tree.root = 0;
  tree.groups.clear();
  const auto n = static_cast<std::uint32_t>(candidates.size());
  if (n == 0) return;
  const std::size_t len = candidates[0].links.size();
  const bool aligned = len <= kMaskBits && std::all_of(candidates.begin(), candidates.end(),
                                                       [len](const topo::Path& p) {
                                                         return p.links.size() == len;
                                                       });
  if (!aligned) {
    tree.groups.push_back(CandidateTree::Group{0, n, 0});
    return;
  }
  // Positions on which every candidate in [first, last) has the same link.
  const auto agree = [&candidates, len](std::uint32_t first, std::uint32_t last) {
    std::uint64_t mask = 0;
    for (std::size_t pos = 0; pos < len; ++pos) {
      const topo::LinkId lid = candidates[first].links[pos];
      bool same = true;
      for (std::uint32_t i = first + 1; i < last && same; ++i) {
        same = candidates[i].links[pos] == lid;
      }
      if (same) mask |= std::uint64_t{1} << pos;
    }
    return mask;
  };
  tree.root = agree(0, n);
  std::size_t split = 0;  // the first position the candidates disagree on
  while (split < len && in_mask(tree.root, split)) ++split;
  if (split == len) {
    tree.groups.push_back(CandidateTree::Group{0, n, 0});
    return;
  }
  for (std::uint32_t first = 0; first < n;) {
    std::uint32_t last = first + 1;
    while (last < n && candidates[last].links[split] == candidates[first].links[split]) ++last;
    tree.groups.push_back(CandidateTree::Group{first, last, agree(first, last) & ~tree.root});
    first = last;
  }
}

// Algorithm 2 as a branch-and-bound over the flow's CandidateTree. The
// answer is the flat race's: the earliest completion, ties to the lowest
// candidate index. Per flow:
//
//  - Root: one single-link bound per shared link, and the union of their
//    restricted ranges, merged once.
//  - Groups: each multi-member group merges its shared links into the root
//    union once and runs a relaxed IdleScan on it, with the smallest member
//    duration less kLbSlack and horizon + kLbSlack. A member's union
//    contains the group union, so its completion is at least that bound (up
//    to rounding, which kLbSlack covers); a single-member group uses its
//    single-link bound.
//  - Visit groups in bound order and prune the rest once a bound exceeds
//    the best completion by more than kLbSlack: no pruned member could have
//    finished at or before it.
//  - Leaves: a surviving member adds its remaining links' single-link
//    bounds, then one fused scan over (group union, leaf ranges) that stops
//    at completion or abort. A member whose index is below the incumbent's
//    scans with bound nextafter(best), so an equal completion replaces it;
//    any other member must beat best strictly.
//
// Every range starts at the link's first interval with hi > now and every
// scan stops at the horizon, so a leaf scan reads what the flat race's
// scan of the candidate's materialized union reads, and the intervals it
// passes over unfed are no-ops to it. The chosen path, slices and
// completion are therefore the flat race's, bit for bit
// (tests/core/candidate_tree_prop_test.cpp).
FlowPlan plan_one_flow(const net::Network& net, const OccupancyMap& occupancy, FlowId fid,
                       double now, const PlanConfig& config, PlanScratch* scratch) {
  const Flow& f = net.flow(fid);
  FlowPlan plan;
  plan.flow = fid;

  std::vector<topo::Path> fallback_candidates;
  const std::vector<topo::Path>& paths =
      cached_candidates(net, f, config, scratch, fallback_candidates);
  PlanScratch local_scratch;
  PlanScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  const double horizon = f.spec.deadline - config.guard_band;
  if (paths.empty() || horizon <= now) return plan;
  build_candidate_tree(paths, sc.tree);
  const CandidateTree& tree = sc.tree;

  // The paper assumes uniform link bandwidth; transfer time is computed at
  // each path's bottleneck capacity to stay correct on non-uniform graphs.
  // A non-positive duration is never feasible (nothing to allocate).
  std::vector<double>& durations = sc.durations;
  durations.resize(paths.size());
  double min_duration = sim::kInfinity;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    double capacity = sim::kInfinity;
    for (const topo::LinkId lid : paths[i].links) {
      capacity = std::min(capacity, net.link_capacity(lid));
    }
    durations[i] = f.remaining / capacity;
    if (durations[i] > 0.0) min_duration = std::min(min_duration, durations[i]);
  }
  if (min_duration == sim::kInfinity) return plan;

  // Root. A shorter demand can only finish earlier, so single-link bounds
  // taken with the smallest duration bound every candidate through the link.
  std::vector<Range>& ranges = sc.time_alloc.ranges;
  const topo::Path& first_path = paths.front();
  double root_bound = now;
  ranges.clear();
  for (std::size_t pos = 0; pos < first_path.links.size(); ++pos) {
    if (!in_mask(tree.root, pos)) continue;
    const topo::LinkId lid = first_path.links[pos];
    root_bound = std::max(root_bound, pruning_link_bound(occupancy, lid, now, min_duration));
    if (root_bound > horizon + kLbSlack) return plan;
    ranges.push_back(restricted_range(occupancy, lid, now, horizon));
  }
  unite_ranges(ranges, sc.root_union, sc.time_alloc.bufs[0]);

  // Group bounds.
  if (sc.group_unions.size() < tree.groups.size()) sc.group_unions.resize(tree.groups.size());
  sc.group_bounds.clear();
  for (std::uint32_t g = 0; g < tree.groups.size(); ++g) {
    const CandidateTree::Group& group = tree.groups[g];
    double duration = sim::kInfinity;
    for (std::uint32_t i = group.first; i < group.last; ++i) {
      if (durations[i] > 0.0) duration = std::min(duration, durations[i]);
    }
    if (duration == sim::kInfinity) continue;
    const topo::Path& lead = paths[group.first];
    double link_bound = root_bound;
    bool hopeless = false;
    ranges.clear();
    ranges.push_back(whole(sc.root_union));
    for (std::size_t pos = 0; pos < lead.links.size() && !hopeless; ++pos) {
      if (!in_mask(group.shared, pos)) continue;
      const topo::LinkId lid = lead.links[pos];
      link_bound = std::max(link_bound, pruning_link_bound(occupancy, lid, now, duration));
      hopeless = link_bound > horizon + kLbSlack;
      ranges.push_back(restricted_range(occupancy, lid, now, horizon));
    }
    if (hopeless) continue;
    double bound = link_bound;
    if (group.last - group.first > 1 && group.shared != 0) {
      std::vector<util::Interval>& shared = sc.group_unions[g];
      unite_ranges(ranges, shared, sc.time_alloc.bufs[0]);
      // Relaxed like the single-link bounds: for the demand less kLbSlack.
      IdleScan relaxed(now, duration - kLbSlack, horizon + kLbSlack, sim::kInfinity, nullptr);
      for (const util::Interval& busy : shared) {
        if (!relaxed.feed(busy)) break;
      }
      double relaxed_completion = 0.0;
      if (!relaxed.finish(relaxed_completion)) continue;
      bound = std::max(bound, relaxed_completion);
    }
    sc.group_bounds.push_back(PlanScratch::GroupBound{bound, link_bound, g});
  }
  std::sort(sc.group_bounds.begin(), sc.group_bounds.end(),
            [](const PlanScratch::GroupBound& a, const PlanScratch::GroupBound& b) {
              return a.bound != b.bound ? a.bound < b.bound : a.group < b.group;
            });

  // Visit groups in bound order.
  util::IntervalSet& trial = sc.trial;
  double best = sim::kInfinity;
  std::size_t best_index = paths.size();
  for (const PlanScratch::GroupBound& gb : sc.group_bounds) {
    if (gb.bound > best + kLbSlack) break;
    const CandidateTree::Group& group = tree.groups[gb.group];
    const bool merged = group.last - group.first > 1 && group.shared != 0;
    const Range base = merged ? whole(sc.group_unions[gb.group]) : whole(sc.root_union);
    const std::uint64_t in_base = tree.root | (merged ? group.shared : 0);
    const std::uint64_t in_bound = tree.root | group.shared;
    for (std::uint32_t i = group.first; i < group.last; ++i) {
      const double duration = durations[i];
      if (!(duration > 0.0)) continue;
      const topo::Path& p = paths[i];
      double lower_bound = gb.link_bound;
      bool hopeless = false;
      ranges.clear();
      ranges.push_back(base);
      for (std::size_t pos = 0; pos < p.links.size() && !hopeless; ++pos) {
        if (in_mask(in_base, pos)) continue;
        const topo::LinkId lid = p.links[pos];
        if (!in_mask(in_bound, pos)) {
          lower_bound = std::max(lower_bound, pruning_link_bound(occupancy, lid, now, duration));
          hopeless = lower_bound > horizon + kLbSlack || lower_bound > best + kLbSlack;
        }
        ranges.push_back(link_tail(occupancy, lid, now));
      }
      if (hopeless) continue;
      const double bound = i < best_index ? std::nextafter(best, sim::kInfinity) : best;
      trial.clear();
      IdleScan scan(now, duration, horizon, bound, &trial);
      ++plan.paths_evaluated;
      double completion = 0.0;
      if (scan_streams(ranges, horizon, scan, completion)) {
        best = completion;
        best_index = i;
        std::swap(plan.slices, trial);
      }
    }
  }
  if (best_index < paths.size()) {
    plan.path = paths[best_index];
    plan.completion = best;
    plan.feasible = true;
  }
  return plan;
}

}  // namespace taps::core
