#include "util/interval_set.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace taps::util {

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << '[' << iv.lo << ", " << iv.hi << ')';
}

IntervalSet::IntervalSet(std::initializer_list<Interval> ivs) {
  for (const auto& iv : ivs) insert(iv);
}

void IntervalSet::insert(double lo, double hi) {
  if (hi <= lo) return;
  // Find the first interval whose end reaches lo (merge candidates start here).
  auto first = std::lower_bound(ivs_.begin(), ivs_.end(), lo,
                                [](const Interval& iv, double v) { return iv.hi < v; });
  // Find one-past the last interval whose start is <= hi.
  auto last = std::upper_bound(first, ivs_.end(), hi,
                               [](double v, const Interval& iv) { return v < iv.lo; });
  if (first != last) {
    lo = std::min(lo, first->lo);
    hi = std::max(hi, std::prev(last)->hi);
  }
  auto it = ivs_.erase(first, last);
  ivs_.insert(it, Interval{lo, hi});
}

void IntervalSet::erase(double lo, double hi) {
  if (hi <= lo || ivs_.empty()) return;
  std::vector<Interval> out;
  out.reserve(ivs_.size() + 1);
  for (const auto& iv : ivs_) {
    if (iv.hi <= lo || iv.lo >= hi) {
      out.push_back(iv);
      continue;
    }
    if (iv.lo < lo) out.push_back(Interval{iv.lo, lo});
    if (iv.hi > hi) out.push_back(Interval{hi, iv.hi});
  }
  ivs_ = std::move(out);
}

bool IntervalSet::trim_before(double t) {
  if (ivs_.empty() || ivs_.front().lo >= t) return false;
  // Same result as erase(-inf, t): intervals ending at or before t go, and
  // the one straddling t is clipped to start at t.
  const auto first_kept = std::lower_bound(ivs_.begin(), ivs_.end(), t,
                                           [](const Interval& iv, double v) { return iv.hi <= v; });
  ivs_.erase(ivs_.begin(), first_kept);
  if (!ivs_.empty() && ivs_.front().lo < t) ivs_.front().lo = t;
  return true;
}

IntervalSet::SpliceUndo IntervalSet::insert_logged(double lo, double hi,
                                                   std::vector<Interval>& arena) {
  SpliceUndo undo;
  if (hi <= lo) return undo;
  // Same merge-range search as insert().
  auto first = std::lower_bound(ivs_.begin(), ivs_.end(), lo,
                                [](const Interval& iv, double v) { return iv.hi < v; });
  auto last = std::upper_bound(first, ivs_.end(), hi,
                               [](double v, const Interval& iv) { return v < iv.lo; });
  undo.index = static_cast<std::uint32_t>(first - ivs_.begin());
  undo.inserted = 1;
  undo.replaced = static_cast<std::uint32_t>(last - first);
  arena.insert(arena.end(), first, last);
  if (first != last) {
    lo = std::min(lo, first->lo);
    hi = std::max(hi, std::prev(last)->hi);
  }
  auto it = ivs_.erase(first, last);
  ivs_.insert(it, Interval{lo, hi});
  return undo;
}

IntervalSet::SpliceUndo IntervalSet::erase_logged(double lo, double hi,
                                                  std::vector<Interval>& arena) {
  SpliceUndo undo;
  if (hi <= lo || ivs_.empty()) return undo;
  // First interval with iv.hi > lo, then one-past the last with iv.lo < hi:
  // exactly the intervals overlapping [lo, hi).
  auto first = std::lower_bound(ivs_.begin(), ivs_.end(), lo,
                                [](const Interval& iv, double v) { return iv.hi <= v; });
  auto last = std::lower_bound(first, ivs_.end(), hi,
                               [](const Interval& iv, double v) { return iv.lo < v; });
  if (first == last) return undo;
  undo.index = static_cast<std::uint32_t>(first - ivs_.begin());
  undo.replaced = static_cast<std::uint32_t>(last - first);
  arena.insert(arena.end(), first, last);
  Interval frags[2];
  std::size_t nf = 0;
  if (first->lo < lo) frags[nf++] = Interval{first->lo, lo};
  if (std::prev(last)->hi > hi) frags[nf++] = Interval{hi, std::prev(last)->hi};
  undo.inserted = static_cast<std::uint32_t>(nf);
  auto it = ivs_.erase(first, last);
  ivs_.insert(it, frags, frags + nf);
  return undo;
}

void IntervalSet::undo_splice(const SpliceUndo& undo, const Interval* replaced, std::size_t n) {
  assert(n == undo.replaced);
  assert(undo.index + undo.inserted <= ivs_.size());
  const auto at = ivs_.begin() + static_cast<std::ptrdiff_t>(undo.index);
  auto it = ivs_.erase(at, at + static_cast<std::ptrdiff_t>(undo.inserted));
  ivs_.insert(it, replaced, replaced + n);
}

double IntervalSet::measure() const {
  double m = 0.0;
  for (const auto& iv : ivs_) m += iv.length();
  return m;
}

bool IntervalSet::contains(double t) const {
  auto it = std::upper_bound(ivs_.begin(), ivs_.end(), t,
                             [](double v, const Interval& iv) { return v < iv.lo; });
  return it != ivs_.begin() && std::prev(it)->contains(t);
}

bool IntervalSet::intersects(double lo, double hi) const {
  if (hi <= lo) return false;
  auto it = std::lower_bound(ivs_.begin(), ivs_.end(), lo,
                             [](const Interval& iv, double v) { return iv.hi <= v; });
  return it != ivs_.end() && it->lo < hi;
}

double IntervalSet::overlap_measure(double lo, double hi) const {
  if (hi <= lo) return 0.0;
  double m = 0.0;
  for (const auto& iv : ivs_) {
    if (iv.hi <= lo) continue;
    if (iv.lo >= hi) break;
    m += std::min(hi, iv.hi) - std::max(lo, iv.lo);
  }
  return m;
}

IntervalSet IntervalSet::unite(const IntervalSet& other) const {
  IntervalSet out;
  out.ivs_.reserve(ivs_.size() + other.ivs_.size());
  std::size_t i = 0, j = 0;
  auto push = [&out](Interval iv) {
    if (!out.ivs_.empty() && iv.lo <= out.ivs_.back().hi) {
      out.ivs_.back().hi = std::max(out.ivs_.back().hi, iv.hi);
    } else {
      out.ivs_.push_back(iv);
    }
  };
  while (i < ivs_.size() || j < other.ivs_.size()) {
    if (j == other.ivs_.size() || (i < ivs_.size() && ivs_[i].lo <= other.ivs_[j].lo)) {
      push(ivs_[i++]);
    } else {
      push(other.ivs_[j++]);
    }
  }
  return out;
}

IntervalSet IntervalSet::intersect(const IntervalSet& other) const {
  IntervalSet out;
  std::size_t i = 0, j = 0;
  while (i < ivs_.size() && j < other.ivs_.size()) {
    const double lo = std::max(ivs_[i].lo, other.ivs_[j].lo);
    const double hi = std::min(ivs_[i].hi, other.ivs_[j].hi);
    if (hi > lo) out.ivs_.push_back(Interval{lo, hi});
    if (ivs_[i].hi < other.ivs_[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

IntervalSet IntervalSet::subtract(const IntervalSet& other) const {
  IntervalSet out = *this;
  for (const auto& iv : other.ivs_) out.erase(iv.lo, iv.hi);
  return out;
}

IntervalSet IntervalSet::complement(double lo, double hi) const {
  IntervalSet out;
  if (hi <= lo) return out;
  double cursor = lo;
  for (const auto& iv : ivs_) {
    if (iv.hi <= lo) continue;
    if (iv.lo >= hi) break;
    if (iv.lo > cursor) out.ivs_.push_back(Interval{cursor, std::min(iv.lo, hi)});
    cursor = std::max(cursor, iv.hi);
    if (cursor >= hi) break;
  }
  if (cursor < hi) out.ivs_.push_back(Interval{cursor, hi});
  return out;
}

IntervalSet IntervalSet::allocate_earliest(double from, double duration, double horizon) const {
  IntervalSet out;
  if (duration <= 0.0) return out;
  double need = duration;
  double cursor = from;
  for (const auto& iv : ivs_) {
    if (iv.hi <= from) continue;
    const double idle_lo = cursor;
    const double idle_hi = std::min(iv.lo, horizon);
    if (idle_hi > idle_lo) {
      const double take = std::min(need, idle_hi - idle_lo);
      // idle_lo + take can round one ulp past idle_hi, into the busy
      // interval; the slice ends at the gap's end at the latest. A demand
      // left over only by rounding cannot fill a slice: done.
      const double end = std::min(idle_lo + take, idle_hi);
      if (end == idle_lo && !out.empty()) return out;
      out.ivs_.push_back(Interval{idle_lo, end});
      need -= take;
      if (need <= 0.0) return out;
    }
    cursor = std::max(cursor, iv.hi);
    if (cursor >= horizon) break;
  }
  if (need > 0.0 && cursor < horizon) {
    const double take = std::min(need, horizon - cursor);
    const double end = std::min(cursor + take, horizon);
    if (end == cursor && !out.empty()) return out;
    out.ivs_.push_back(Interval{cursor, end});
    need -= take;
  }
  if (need > 1e-12) return IntervalSet{};  // insufficient idle time before horizon
  return out;
}

std::size_t IntervalSet::first_index_after(double t) const {
  const auto it = std::lower_bound(ivs_.begin(), ivs_.end(), t,
                                   [](const Interval& iv, double v) { return iv.hi <= v; });
  return static_cast<std::size_t>(it - ivs_.begin());
}

void IntervalSet::push_back_disjoint(double lo, double hi) {
  assert(hi > lo);
  assert(ivs_.empty() || lo > ivs_.back().hi);
  ivs_.push_back(Interval{lo, hi});
}

double IntervalSet::next_boundary(double t) const {
  // Intervals are sorted; find the first interval whose end is > t.
  auto it = std::upper_bound(ivs_.begin(), ivs_.end(), t,
                             [](double v, const Interval& iv) { return v < iv.hi; });
  if (it == ivs_.end()) return std::numeric_limits<double>::infinity();
  return it->lo > t ? it->lo : it->hi;
}

bool IntervalSet::check_invariants() const {
  for (std::size_t k = 0; k < ivs_.size(); ++k) {
    if (ivs_[k].empty()) return false;
    if (k > 0 && ivs_[k - 1].hi >= ivs_[k].lo) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& set) {
  os << '{';
  bool first = true;
  for (const auto& iv : set.intervals()) {
    if (!first) os << ", ";
    os << iv;
    first = false;
  }
  return os << '}';
}

}  // namespace taps::util
