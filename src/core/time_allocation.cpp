#include "core/time_allocation.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace taps::core {

namespace {

using Range = TimeAllocScratch::Range;

/// Two-pointer union merge with IntervalSet::unite's exact coalescing rule
/// (iv.lo <= back.hi extends the back interval), writing into a reused
/// buffer. Sequential and branch-predictable — this is why the restricted
/// merge beats a k-way cursor sweep, whose short unpredictable advance loops
/// stall on mispredicts.
void merge_union(const util::Interval* a, const util::Interval* ae, const util::Interval* b,
                 const util::Interval* be, std::vector<util::Interval>& out) {
  out.clear();
  const auto push = [&out](util::Interval iv) {
    if (!out.empty() && iv.lo <= out.back().hi) {
      if (iv.hi > out.back().hi) out.back().hi = iv.hi;
    } else {
      out.push_back(iv);
    }
  };
  while (a != ae || b != be) {
    if (b == be || (a != ae && a->lo <= b->lo)) {
      push(*a++);
    } else {
      push(*b++);
    }
  }
}

}  // namespace

// Fused TimeAllocation: materialize T_ocp restricted to the only window
// that can matter — [now, min(completion_bound, horizon)) — into reused
// scratch, then run IntervalSet::allocate_earliest's exact scan over it with
// a branch-and-bound abort. Identical output to the reference:
//
//  - Each link's range starts at its earliest-free hint (first interval
//    with hi > now); a dropped earlier interval can only retreat a merged
//    interval's lo, and allocate_earliest never reads structure at or below
//    `now` (the first surviving interval's lo is always <= now when it was
//    merged with a dropped one).
//  - Intervals with lo >= stop are dropped: before the scan can consult
//    them its cursor satisfies cursor + need >= lo >= stop, which is either
//    a bound abort (stop == completion_bound) or horizon infeasibility
//    (stop == horizon) — decided identically without them.
//  - Union order is irrelevant (canonical interval-set form is unique), so
//    folding smallest-range-first matches path_union's link-order fold.
//
// The restriction skips the far tail a deep occupancy accumulates past the
// incumbent completion, the scratch buffers kill the per-call allocations
// path_union pays, and the abort stops losing candidates early.
bool allocate_time_into(const OccupancyMap& occupancy, const topo::Path& path, double now,
                        double duration, double horizon, double completion_bound,
                        util::IntervalSet& slices, double& completion,
                        TimeAllocScratch* scratch) {
  slices.clear();
  if (duration <= 0.0 || horizon <= now) return false;
  const double stop = std::min(completion_bound, horizon);

  // Hot callers (the planner) pass persistent scratch so the buffers are
  // allocation-free in steady state; scratch-less calls pay a local one.
  TimeAllocScratch local_scratch;
  TimeAllocScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  std::vector<Range>& ranges = sc.ranges;
  ranges.clear();
  for (const topo::LinkId lid : path.links) {
    const auto& ivs = occupancy.link(lid).intervals();
    const std::size_t first = occupancy.first_index_after(lid, now);
    if (first == ivs.size()) continue;
    const util::Interval* base = ivs.data() + first;
    const util::Interval* last =
        std::lower_bound(base, ivs.data() + ivs.size(), stop,
                         [](const util::Interval& iv, double v) { return iv.lo < v; });
    if (base != last) ranges.push_back(Range{base, last});
  }

  // Fold the restricted ranges into one union, smallest first so the
  // intermediate results stay as short as possible.
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.size() < b.size(); });
  std::vector<util::Interval>(&bufs)[2] = sc.bufs;
  const util::Interval* u = nullptr;
  const util::Interval* ue = nullptr;
  if (ranges.size() == 1) {
    u = ranges[0].first;
    ue = ranges[0].last;
  } else if (ranges.size() >= 2) {
    int cur = 0;
    merge_union(ranges[0].first, ranges[0].last, ranges[1].first, ranges[1].last, bufs[cur]);
    for (std::size_t r = 2; r < ranges.size(); ++r) {
      merge_union(bufs[cur].data(), bufs[cur].data() + bufs[cur].size(), ranges[r].first,
                  ranges[r].last, bufs[1 - cur]);
      cur = 1 - cur;
    }
    u = bufs[cur].data();
    ue = u + bufs[cur].size();
  }

  // allocate_earliest's scan, verbatim arithmetic, plus the bound abort: a
  // take only happens after cursor + need < completion_bound held, so any
  // returned completion is strictly under the bound.
  double need = duration;
  double cursor = now;
  for (; u != ue; ++u) {
    if (cursor + need >= completion_bound) {
      slices.clear();
      return false;
    }
    const double idle_hi = std::min(u->lo, horizon);
    if (idle_hi > cursor) {
      const double take = std::min(need, idle_hi - cursor);
      slices.push_back_disjoint(cursor, cursor + take);
      need -= take;
      if (need <= 0.0) {
        completion = slices.back_end();
        return true;
      }
    }
    cursor = std::max(cursor, u->hi);
    if (cursor >= horizon) break;
  }
  if (cursor + need >= completion_bound) {
    slices.clear();
    return false;
  }
  if (need > 0.0 && cursor < horizon) {
    const double take = std::min(need, horizon - cursor);
    slices.push_back_disjoint(cursor, cursor + take);
    need -= take;
  }
  if (need > 1e-12) {  // insufficient idle time before horizon
    slices.clear();
    return false;
  }
  completion = slices.back_end();
  return true;
}

TimeAllocation allocate_time(const OccupancyMap& occupancy, const topo::Path& path,
                             double now, double duration, double horizon,
                             double completion_bound) {
  TimeAllocation out;
  double completion = 0.0;
  if (allocate_time_into(occupancy, path, now, duration, horizon, completion_bound,
                         out.slices, completion)) {
    out.completion = completion;
  }
  return out;
}

}  // namespace taps::core
