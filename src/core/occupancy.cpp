#include "core/occupancy.hpp"

#include <algorithm>
#include <cassert>

namespace taps::core {

void OccupancyMap::clear() {
  for (auto& set : by_link_) set.clear();
  for (auto& h : hints_) h.valid = false;
  for (auto& p : prefix_) p.valid = false;
}

void OccupancyMap::reset(std::size_t link_count) {
  if (by_link_.size() != link_count) {
    by_link_.resize(link_count);
    hints_.resize(link_count);
    prefix_.resize(link_count);
  }
  clear();
}

std::size_t OccupancyMap::first_index_after(topo::LinkId id, double from) const {
  const auto i = static_cast<std::size_t>(id);
  const util::IntervalSet& set = by_link_[i];
  Hint& hint = hints_[i];
  if (hint.valid && hint.from <= from) {
    // The answer is monotone in `from`, so resume the scan at the cached
    // index instead of searching the whole set. Replans query every link
    // with the same `from = now`, making this O(1) after the first hit.
    std::size_t idx = hint.index;
    const auto& ivs = set.intervals();
    while (idx < ivs.size() && ivs[idx].hi <= from) ++idx;
    hint.from = from;
    hint.index = static_cast<std::uint32_t>(idx);
    return idx;
  }
  const std::size_t idx = set.first_index_after(from);
  hint = Hint{from, static_cast<std::uint32_t>(idx), true};
  return idx;
}

util::IntervalSet OccupancyMap::path_union(const topo::Path& path) const {
  util::IntervalSet out;
  for (const topo::LinkId lid : path.links) {
    const auto& set = by_link_[static_cast<std::size_t>(lid)];
    if (!set.empty()) out = out.unite(set);
  }
  return out;
}

void OccupancyMap::occupy(const topo::Path& path, const util::IntervalSet& slices,
                          OccupancyJournal* journal) {
  assert(!collides(path, slices));
  for (const topo::LinkId lid : path.links) {
    const auto i = static_cast<std::size_t>(lid);
    auto& set = by_link_[i];
    if (journal == nullptr) {
      for (const util::Interval& iv : slices.intervals()) set.insert(iv);
    } else {
      for (const util::Interval& iv : slices.intervals()) {
        const auto arena_begin = static_cast<std::uint32_t>(journal->arena.size());
        auto undo = set.insert_logged(iv.lo, iv.hi, journal->arena);
        journal->records.push_back(OccupancyJournal::Record{lid, undo, arena_begin});
      }
    }
    hints_[i].valid = false;
    prefix_[i].valid = false;
  }
}

void OccupancyMap::vacate(const topo::Path& path, const util::IntervalSet& slices,
                          OccupancyJournal& journal) {
  for (const topo::LinkId lid : path.links) {
    const auto i = static_cast<std::size_t>(lid);
    auto& set = by_link_[i];
    for (const util::Interval& iv : slices.intervals()) {
      const auto arena_begin = static_cast<std::uint32_t>(journal.arena.size());
      auto undo = set.erase_logged(iv.lo, iv.hi, journal.arena);
      journal.records.push_back(OccupancyJournal::Record{lid, undo, arena_begin});
    }
    hints_[i].valid = false;
    prefix_[i].valid = false;
  }
}

void OccupancyMap::rollback(OccupancyJournal& journal, const OccupancyCheckpoint& cp) {
  assert(cp.records <= journal.records.size());
  assert(cp.arena <= journal.arena.size());
  for (std::size_t r = journal.records.size(); r > cp.records; --r) {
    const OccupancyJournal::Record& rec = journal.records[r - 1];
    const auto i = static_cast<std::size_t>(rec.link);
    by_link_[i].undo_splice(rec.undo, journal.arena.data() + rec.arena_begin,
                            rec.undo.replaced);
    hints_[i].valid = false;
    prefix_[i].valid = false;
  }
  journal.records.resize(cp.records);
  journal.arena.resize(cp.arena);
}

bool OccupancyMap::collides(const topo::Path& path, const util::IntervalSet& slices) const {
  for (const topo::LinkId lid : path.links) {
    const auto& set = by_link_[static_cast<std::size_t>(lid)];
    for (const util::Interval& iv : slices.intervals()) {
      if (set.intersects(iv.lo, iv.hi)) return true;
    }
  }
  return false;
}

void OccupancyMap::trim_before(double t) {
  for (auto& set : by_link_) set.trim_before(t);
  for (auto& h : hints_) h.valid = false;
  for (auto& p : prefix_) p.valid = false;
}

double OccupancyMap::single_link_completion(topo::LinkId id, double from, double need) const {
  const auto i = static_cast<std::size_t>(id);
  const auto& ivs = by_link_[i].intervals();
  const std::size_t f = first_index_after(id, from);
  if (f == ivs.size()) return from + need;  // nothing blocks at or after `from`

  BusyPrefix& pre = prefix_[i];
  if (!pre.valid) {
    pre.cum.assign(ivs.size() + 1, 0.0);
    for (std::size_t k = 0; k < ivs.size(); ++k) {
      pre.cum[k + 1] = pre.cum[k] + (ivs[k].hi - ivs[k].lo);
    }
    pre.valid = true;
  }

  // corr: the part of interval f's busy length that lies before `from` (it
  // must not count against [from, ...) idle time).
  const double corr = std::max(0.0, from - ivs[f].lo);
  // Cumulative idle time in [from, ivs[k].lo) — nondecreasing in k.
  const auto idle_before = [&](std::size_t k) {
    return (ivs[k].lo - from) - (pre.cum[k] - pre.cum[f] - corr);
  };

  // Smallest k in [f, n) whose preceding gaps already hold `need` seconds.
  std::size_t lo = f;
  std::size_t hi = ivs.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (idle_before(mid) >= need) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == ivs.size()) {  // demand completes in the open tail after the last interval
    const double idle_end = (ivs.back().hi - from) - (pre.cum[ivs.size()] - pre.cum[f] - corr);
    return ivs.back().hi + (need - idle_end);
  }
  // The demand completes in the idle gap ending at ivs[lo].lo.
  return ivs[lo].lo - (idle_before(lo) - need);
}

}  // namespace taps::core
