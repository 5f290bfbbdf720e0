// Ordered set of disjoint half-open intervals [lo, hi) over continuous time.
//
// This is the core data structure behind TAPS Algorithm 3 ("TimeAllocation"):
// each link keeps the set of time intervals during which it is occupied, and
// allocating a flow on a path means taking the earliest idle sub-intervals of
// the *union* of the path's link occupancies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

namespace taps::util {

/// A half-open interval [lo, hi). Empty when hi <= lo.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] constexpr double length() const { return hi > lo ? hi - lo : 0.0; }
  [[nodiscard]] constexpr bool empty() const { return hi <= lo; }
  [[nodiscard]] constexpr bool contains(double t) const { return t >= lo && t < hi; }
  [[nodiscard]] constexpr bool overlaps(const Interval& o) const {
    return lo < o.hi && o.lo < hi;
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

/// Ordered collection of disjoint, non-adjacent half-open intervals.
///
/// All mutating operations keep the canonical form: sorted by `lo`,
/// pairwise-disjoint, adjacent intervals (hi == next.lo) merged. Operations
/// are linear in the number of stored intervals unless noted otherwise.
class IntervalSet {
 public:
  IntervalSet() = default;
  explicit IntervalSet(std::initializer_list<Interval> ivs);

  /// Insert [lo, hi), merging with any overlapping/adjacent intervals.
  void insert(double lo, double hi);
  void insert(const Interval& iv) { insert(iv.lo, iv.hi); }

  /// Remove [lo, hi) from the set (splitting intervals as needed).
  void erase(double lo, double hi);

  /// Undo record for one logged mutation: `inserted` new intervals were
  /// placed at `index`, replacing `replaced` consecutive original intervals
  /// (saved by the caller, e.g. in an OccupancyJournal arena).
  struct SpliceUndo {
    std::uint32_t index = 0;
    std::uint32_t inserted = 0;
    std::uint32_t replaced = 0;
  };

  /// insert() that appends the intervals it replaces to `arena` and returns
  /// an undo record. undo_splice() with the record and the corresponding
  /// arena slice restores the prior state bitwise. O(changed) rollback is
  /// what makes plan checkpointing cheap (see core::OccupancyJournal).
  SpliceUndo insert_logged(double lo, double hi, std::vector<Interval>& arena);

  /// erase() with the same logging contract as insert_logged. Unlike the
  /// plain erase() it splices only the affected range instead of rebuilding
  /// the whole vector, so it is O(overlapping + tail move).
  SpliceUndo erase_logged(double lo, double hi, std::vector<Interval>& arena);

  /// Reverse one logged mutation: remove the `undo.inserted` intervals at
  /// `undo.index` and put back the `n == undo.replaced` saved ones. Records
  /// must be undone in LIFO order.
  void undo_splice(const SpliceUndo& undo, const Interval* replaced, std::size_t n);

  /// Remove everything before `t` (useful to garbage-collect past
  /// occupancy), in place. Returns whether anything was removed; a set with
  /// nothing before `t` is left untouched at O(1) cost.
  bool trim_before(double t);

  void clear() { ivs_.clear(); }

  [[nodiscard]] bool empty() const { return ivs_.empty(); }
  [[nodiscard]] std::size_t size() const { return ivs_.size(); }
  [[nodiscard]] const std::vector<Interval>& intervals() const { return ivs_; }

  /// Total measure (sum of lengths) of all intervals.
  [[nodiscard]] double measure() const;

  /// Does any stored interval contain `t`?
  [[nodiscard]] bool contains(double t) const;

  /// Does [lo, hi) intersect any stored interval?
  [[nodiscard]] bool intersects(double lo, double hi) const;

  /// Measure of the intersection between this set and [lo, hi).
  [[nodiscard]] double overlap_measure(double lo, double hi) const;

  /// Set union / intersection / difference (linear-time merges).
  [[nodiscard]] IntervalSet unite(const IntervalSet& other) const;
  [[nodiscard]] IntervalSet intersect(const IntervalSet& other) const;
  [[nodiscard]] IntervalSet subtract(const IntervalSet& other) const;

  /// Complement of this set within [lo, hi): the idle time.
  [[nodiscard]] IntervalSet complement(double lo, double hi) const;

  /// Earliest sub-intervals of the *complement* of this set, starting at
  /// `from`, with total length `duration`. This is exactly Algorithm 3's
  /// "first E_i time slices in the complementary set of T_ocp".
  ///
  /// `horizon` bounds the search; returns an empty set if the idle time in
  /// [from, horizon) is insufficient.
  [[nodiscard]] IntervalSet allocate_earliest(double from, double duration,
                                              double horizon = std::numeric_limits<double>::infinity()) const;

  /// Smallest interval endpoint (lo or hi) strictly greater than `t`, or
  /// +infinity if none. Used to find the next rate-change instant of a
  /// slice-scheduled flow.
  [[nodiscard]] double next_boundary(double t) const;

  /// Index of the first interval with hi > t (== size() when none): the
  /// first interval still relevant when allocating from time t. O(log n).
  [[nodiscard]] std::size_t first_index_after(double t) const;

  /// Append [lo, hi) known to start strictly after the current last interval
  /// ends (asserted in debug builds). O(1); lets allocators build their
  /// result without the general insert()'s merge scan.
  void push_back_disjoint(double lo, double hi);

  /// End of the last interval (requires !empty()).
  [[nodiscard]] double back_end() const { return ivs_.back().hi; }
  /// Start of the first interval (requires !empty()).
  [[nodiscard]] double front_start() const { return ivs_.front().lo; }

  /// True when the canonical-form invariants hold (used by property tests).
  [[nodiscard]] bool check_invariants() const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  std::vector<Interval> ivs_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& set);

}  // namespace taps::util
