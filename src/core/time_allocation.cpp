#include "core/time_allocation.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace taps::core {

namespace {

using Range = TimeAllocScratch::Range;

/// Intervals skip_ended steps over one at a time before it gallops: most
/// runs of ended intervals are short.
constexpr std::ptrdiff_t kLinearProbe = 4;

/// The first interval of [it, end) with hi > t. `hi` increases along a
/// canonical range, so after a short linear probe an exponential search
/// brackets the answer and a binary search finds it: O(log r) for a run of
/// r intervals ending at or before t.
const util::Interval* skip_ended(const util::Interval* it, const util::Interval* end, double t) {
  for (std::ptrdiff_t k = 0; k < kLinearProbe; ++k) {
    if (it == end || it->hi > t) return it;
    ++it;
  }
  const std::ptrdiff_t n = end - it;
  std::ptrdiff_t ended = 0;  // it[0, ended) all end at or before t
  std::ptrdiff_t probe = 1;
  while (probe <= n && it[probe - 1].hi <= t) {
    ended = probe;
    probe *= 2;
  }
  return std::partition_point(it + ended, it + std::min(probe, n),
                              [t](const util::Interval& iv) { return iv.hi <= t; });
}

/// Two-pointer union merge with IntervalSet::unite's exact coalescing rule
/// (iv.lo <= back.hi extends the back interval), writing into a reused
/// buffer. Sequential and branch-predictable, and it runs to the stop: the
/// tool for a union that is scanned whole or read by many scans (the
/// candidate tree's shared unions). A scan that reads a union once and
/// stops early merges its few streams inside the scan (scan_streams).
///
/// After each push, both inputs pass over their intervals ending at or
/// before the back's end: each starts below that end too (and at or after
/// the last pushed start), so push would swallow it whole.
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
    const double top = out.back().hi;
    a = skip_ended(a, ae, top);
    b = skip_ended(b, be, top);
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
  // A head ending at or before the cursor (IdleScan::cursor) is a no-op to
  // feed, as is the rest of its run: the stream passes over them unfed.
  // A pending abort is unaffected, since only a fed interval or finish()
  // acts on it and nothing it reads has moved.
  while (n > 0) {
    std::size_t m = 0;
    for (std::size_t k = 1; k < n; ++k) {
      if (streams[k].first->lo < streams[m].first->lo) m = k;
    }
    Range& head = streams[m];
    if (head.first->lo >= horizon) break;
    if (head.first->hi <= scan.cursor()) {
      head.first = skip_ended(head.first, head.last, scan.cursor());
    } else {
      if (!scan.feed(*head.first)) break;
      ++head.first;
    }
    if (head.first == head.last) head = streams[--n];
  }
  return scan.finish(completion);
}

}  // namespace taps::core
