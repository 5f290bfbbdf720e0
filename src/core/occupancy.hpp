// Per-link occupied-time bookkeeping for the TAPS controller (the paper's
// O_x sets). A link is "occupied" during every time slice pre-allocated to
// some flow crossing it; TAPS maintains at most one flow per link at any
// instant, so occupancy intervals never overlap.
//
// Queries that scan forward from a time t (the replan hot path always asks
// "first occupancy at or after now") go through a per-link earliest-free
// hint: the last (from, index) answer is cached and reused when the next
// query's `from` is not earlier, instead of rescanning from t=0. The cache
// is invalidated per link on every mutation. Hints make the map NOT safe for
// concurrent const access from multiple threads (each exp::Sweep worker owns
// its scheduler and map, so this never arises in-tree).
#pragma once

#include <vector>

#include "topo/graph.hpp"
#include "util/interval_set.hpp"

namespace taps::core {

/// Undo log for OccupancyMap mutations. Logged occupy()/vacate() calls
/// append one record per per-link splice; rollback() replays them in LIFO
/// order, restoring every touched IntervalSet bitwise. A checkpoint is just
/// the journal's (records, arena) watermark, so taking one is O(1) and
/// rolling back costs O(mutations since the checkpoint) — the mechanism
/// behind TapsScheduler's incremental replanning (see DESIGN.md).
// taps-threading: single-domain -- owned by its OccupancyMap's domain
struct OccupancyJournal {
  struct Record {
    topo::LinkId link = 0;
    util::IntervalSet::SpliceUndo undo;
    std::uint32_t arena_begin = 0;  // slice of `arena` holding the replaced intervals
  };
  std::vector<Record> records;
  std::vector<util::Interval> arena;

  [[nodiscard]] bool empty() const { return records.empty(); }
  void clear() {
    records.clear();
    arena.clear();
  }
};

/// Watermark into an OccupancyJournal: everything logged after it can be
/// rolled back. Checkpoints taken on the same journal are totally ordered;
/// rollback to an older checkpoint implicitly discards newer ones.
// taps-threading: single-domain -- snapshot taken and restored by one domain
struct OccupancyCheckpoint {
  std::size_t records = 0;
  std::size_t arena = 0;
};

// taps-threading: single-domain -- mutable hint/prefix caches make even const reads unsafe to share
class OccupancyMap {
 public:
  explicit OccupancyMap(std::size_t link_count)
      : by_link_(link_count), hints_(link_count), prefix_(link_count) {}

  void clear();

  /// Re-target the map to `link_count` links, all idle, KEEPING the per-link
  /// interval storage capacity (the replan hot path rebuilds a trial map on
  /// every arrival; recycling avoids re-growing every vector each time).
  void reset(std::size_t link_count);

  [[nodiscard]] std::size_t link_count() const { return by_link_.size(); }

  [[nodiscard]] const util::IntervalSet& link(topo::LinkId id) const {
    return by_link_[static_cast<std::size_t>(id)];
  }

  /// Union of the occupied sets of all links on `path` (the paper's T_ocp):
  /// its complement is the time when the whole path is idle end-to-end.
  [[nodiscard]] util::IntervalSet path_union(const topo::Path& path) const;

  /// Index of the first interval of `link(id)` with hi > from, answered via
  /// the per-link hint cache (falls back to binary search on miss).
  [[nodiscard]] std::size_t first_index_after(topo::LinkId id, double from) const;

  /// Earliest completion of a `need`-second allocation considering ONLY link
  /// `id` (single-link Algorithm 3, no horizon). A path's idle time is the
  /// intersection of its links' idle time, so this lower-bounds the
  /// completion on ANY path through the link; plan_one_flow takes the max
  /// over a candidate's links to skip candidates that provably cannot beat
  /// the incumbent. O(log n) per query via a lazily rebuilt per-link
  /// prefix-busy cache (invalidated on mutation, like the hints). The value
  /// carries prefix-summation rounding of at most ~n*ulp — callers must
  /// compare against bounds with a slack exceeding that (see kLbSlack).
  [[nodiscard]] double single_link_completion(topo::LinkId id, double from, double need) const;

  /// Mark every link of `path` occupied during `slices`. In debug builds,
  /// asserts the slices do not overlap existing occupancy (the exclusive-use
  /// invariant). With `journal` non-null every mutation is logged so
  /// rollback() can undo it.
  void occupy(const topo::Path& path, const util::IntervalSet& slices,
              OccupancyJournal* journal = nullptr);

  /// Remove `slices` from every link of `path` (logged). The inverse of
  /// occupy() for a committed flow whose slices are known exactly: because
  /// granted slices never overlap across flows, erasing them leaves
  /// precisely the other flows' occupancy, in canonical (hence bitwise-
  /// reproducible) form.
  void vacate(const topo::Path& path, const util::IntervalSet& slices,
              OccupancyJournal& journal);

  /// Current watermark of `journal` (O(1)).
  [[nodiscard]] static OccupancyCheckpoint checkpoint(const OccupancyJournal& journal) {
    return OccupancyCheckpoint{journal.records.size(), journal.arena.size()};
  }

  /// Undo every mutation logged after `cp`, restoring the touched links'
  /// interval sets bitwise, and truncate the journal back to `cp`.
  void rollback(OccupancyJournal& journal, const OccupancyCheckpoint& cp);

  /// True if `slices` would collide with existing occupancy on any link of
  /// the path (property tests use this).
  [[nodiscard]] bool collides(const topo::Path& path, const util::IntervalSet& slices) const;

  /// Drop occupancy before `t` on all links (bounded memory on long runs).
  void trim_before(double t);

 private:
  struct Hint {
    double from = 0.0;
    std::uint32_t index = 0;
    bool valid = false;
  };

  /// cum[k] = total busy seconds in intervals [0, k) of the link — rebuilt
  /// lazily on first single_link_completion after a mutation.
  struct BusyPrefix {
    std::vector<double> cum;
    bool valid = false;
  };

  std::vector<util::IntervalSet> by_link_;
  mutable std::vector<Hint> hints_;  // lazily-updated query cache, see above
  mutable std::vector<BusyPrefix> prefix_;
};

}  // namespace taps::core
