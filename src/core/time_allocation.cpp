#include "core/time_allocation.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace taps::core {

namespace {

using Range = TimeAllocScratch::Range;

/// Two-pointer union merge with IntervalSet::unite's exact coalescing rule
/// (iv.lo <= back.hi extends the back interval), writing into a reused
/// buffer. Sequential and branch-predictable, and it runs to the stop: the
/// tool for a union that is scanned whole or read by many scans (the
/// candidate tree's shared unions). A scan that reads a union once and
/// stops early merges its few streams inside the scan (scan_streams).
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

TimeAllocScratch::Range restricted_range(const OccupancyMap& occupancy, topo::LinkId lid,
                                         double now, double stop) {
  const auto& ivs = occupancy.link(lid).intervals();
  const util::Interval* base = ivs.data() + occupancy.first_index_after(lid, now);
  const util::Interval* last =
      std::lower_bound(base, ivs.data() + ivs.size(), stop,
                       [](const util::Interval& iv, double v) { return iv.lo < v; });
  return Range{base, last};
}

void unite_ranges(std::vector<Range>& ranges, std::vector<util::Interval>& out,
                  std::vector<util::Interval>& tmp) {
  // Fold smallest first so the intermediate results stay as short as
  // possible; the final merge lands in `out`.
  std::erase_if(ranges, [](const Range& r) { return r.empty(); });
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.size() < b.size(); });
  if (ranges.size() <= 1) {
    out.clear();
    if (!ranges.empty()) out.assign(ranges[0].first, ranges[0].last);
    return;
  }
  // Each merge ping-pongs between the two buffers; start in whichever makes
  // the last one write `out`.
  std::vector<util::Interval>* dst = ranges.size() % 2 == 0 ? &out : &tmp;
  std::vector<util::Interval>* src = dst == &out ? &tmp : &out;
  merge_union(ranges[0].first, ranges[0].last, ranges[1].first, ranges[1].last, *dst);
  for (std::size_t r = 2; r < ranges.size(); ++r) {
    std::swap(dst, src);
    merge_union(src->data(), src->data() + src->size(), ranges[r].first, ranges[r].last, *dst);
  }
}

bool scan_streams(std::span<Range> streams, double horizon, IdleScan& scan, double& completion) {
  std::size_t n = 0;
  for (const Range& r : streams) {
    if (!r.empty()) streams[n++] = r;
  }
  // Linear min-selection over a handful of heads (the candidate tree feeds
  // one partial union plus a leaf's few links). Ties in `lo` may go either
  // way: the scan's cursor coalesces overlapping intervals in any order.
  while (n > 0) {
    std::size_t m = 0;
    for (std::size_t k = 1; k < n; ++k) {
      if (streams[k].first->lo < streams[m].first->lo) m = k;
    }
    if (streams[m].first->lo >= horizon || !scan.feed(*streams[m].first)) break;
    if (++streams[m].first == streams[m].last) streams[m] = streams[--n];
  }
  return scan.finish(completion);
}

// Fused TimeAllocation: materialize T_ocp restricted to the only window
// that can matter — [now, horizon) — into reused scratch, then run IdleScan
// over it. Identical output to the reference:
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
//
// The scratch buffers kill the per-call allocations path_union pays, and
// the abort stops losing candidates early.
bool allocate_time_into(const OccupancyMap& occupancy, const topo::Path& path, double now,
                        double duration, double horizon, double completion_bound,
                        util::IntervalSet& slices, double& completion,
                        TimeAllocScratch* scratch) {
  slices.clear();
  if (duration <= 0.0 || horizon <= now) return false;

  // Hot callers pass persistent scratch so the buffers are allocation-free
  // in steady state; scratch-less calls pay a local one.
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
