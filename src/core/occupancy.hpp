// Per-link occupied-time bookkeeping for the TAPS controller (the paper's
// O_x sets). A link is "occupied" during every time slice pre-allocated to
// some flow crossing it; TAPS maintains at most one flow per link at any
// instant, so occupancy intervals never overlap.
//
// Queries that scan forward from a time t (the replan hot path always asks
// "first occupancy at or after now") go through a per-link earliest-free
// hint: the last (from, index) answer is cached and reused when the next
// query's `from` is not earlier, instead of rescanning from t=0. The hint is
// invalidated per link on every mutation. Single-link bounds read per-link
// busy-prefix sums, which a mutation cuts back only to the first interval
// it changed and the next query extends from there. Both caches make the
// map NOT safe for concurrent const access from multiple threads (each
// exp::Sweep worker owns its scheduler and map, so this never arises
// in-tree).
#pragma once

#include <algorithm>
#include <cstdint>
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

  [[nodiscard]] std::size_t link_count() const { return by_link_.size(); }

  [[nodiscard]] const util::IntervalSet& link(topo::LinkId id) const {
    return by_link_[static_cast<std::size_t>(id)];
  }

  /// Index of the first interval of `link(id)` with hi > from, answered via
  /// the per-link hint cache (falls back to binary search on miss).
  [[nodiscard]] std::size_t first_index_after(topo::LinkId id, double from) const;

  /// Earliest completion of a `need`-second allocation considering ONLY link
  /// `id` (single-link Algorithm 3, no horizon). A path's idle time is the
  /// intersection of its links' idle time, so this lower-bounds the
  /// completion on ANY path through the link, except where a gap falls short
  /// of `need` by a residue Algorithm 3 forgives as rounding (see
  /// pruning_link_bound). O(log n) per query over per-link busy-prefix sums,
  /// plus the sums past the first interval changed since the last query
  /// (a splice keeps the entries before it). Extending them repeats a full
  /// rebuild's additions in its order, so the value is bitwise a fresh
  /// map's. It carries prefix-summation rounding of at most ~n*ulp —
  /// callers must compare against bounds with a slack exceeding that (see
  /// kLbSlack).
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
  /// Only links that held something before `t` change or lose their caches.
  void trim_before(double t);

 private:
  struct Hint {
    double from = 0.0;
    std::uint32_t index = 0;
    bool valid = false;
  };

  /// cum[k] = total busy seconds in intervals [0, k) of the link. The first
  /// `valid` entries are current: a logged splice at index i (occupy,
  /// vacate, rollback) caps it at i + 1, since intervals [0, i) are
  /// untouched; an unlogged insert, a trim or a clear sets it to 0.
  /// single_link_completion extends cum from entry valid - 1.
  struct BusyPrefix {
    std::vector<double> cum;
    std::size_t valid = 0;
  };

  /// Record that link `i` changed from interval `index` on.
  void spliced(std::size_t i, std::uint32_t index) {
    hints_[i].valid = false;
    prefix_[i].valid = std::min<std::size_t>(prefix_[i].valid, std::size_t{index} + 1);
  }
  /// Record that link `i` changed anywhere.
  void changed(std::size_t i) {
    hints_[i].valid = false;
    prefix_[i].valid = 0;
  }

  std::vector<util::IntervalSet> by_link_;
  mutable std::vector<Hint> hints_;  // lazily-updated query cache, see above
  mutable std::vector<BusyPrefix> prefix_;
};

}  // namespace taps::core
