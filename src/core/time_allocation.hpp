// Algorithm 3 of the paper: TimeAllocation(p, f).
//
// Given a candidate path p and a flow needing E seconds of transmission, the
// controller computes the union T_ocp of the occupied-time sets of p's links
// and allocates the first E seconds of idle time in its complement, starting
// from `now`. The flow's completion time on p is the end of the last
// allocated slice.
//
// The allocation itself is one scan, IdleScan: fed T_ocp's busy intervals in
// ascending start order, it takes idle time from `now` until the demand is
// met, the horizon is passed, or a branch-and-bound cutoff proves the
// completion cannot beat an incumbent. Algorithm 2's candidate tree
// (path_allocation.cpp) scans a shared partial union merged on the fly with
// a candidate's remaining link ranges (scan_streams), and scans partial
// unions alone for its subtree lower bounds; the oracle's flat race
// (taps_oracle) materializes each candidate's union (unite_ranges) and scans
// that.
//
// An interval ending at or before the scan's cursor cannot change the
// scan's result, nor one ending within a union's last interval so far the
// merge's. scan_streams and the union merge pass over runs of such
// intervals by galloping instead of reading them one at a time. On
// fragmented occupancy — a long busy interval on one link over runs of
// short intervals on the others — most of a path's intervals lie in such
// runs.
//
// The textbook two-step (path_union, then IntervalSet::allocate_earliest)
// lives in taps_oracle as core::allocate_time_reference; the equivalence
// property tests drive it against these scans on random instances.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/occupancy.hpp"

namespace taps::core {

/// Algorithm 3's scan. Feed busy intervals in ascending `lo` order; they
/// may overlap or touch (the cursor coalesces them exactly as a
/// materialized union would), so raw per-link ranges can be merged into the
/// scan without building their union first. The scan takes the earliest
/// idle time from `now` until `duration` seconds are allocated, and decides
/// infeasible when the idle time before `horizon` falls short or — the
/// branch-and-bound cutoff — when the completion is not < `bound`: the
/// unbounded result if its completion lies below the bound, else an abort
/// (early, once provably out of reach), given every interval below the
/// horizon. `slices` may be null when only the completion is wanted (a
/// lower-bound scan).
// taps-threading: thread-compatible -- a stack value owned by one scan.
class IdleScan {
 public:
  IdleScan(double now, double duration, double horizon, double bound, util::IntervalSet* slices)
      : cursor_(now),
        need_(duration),
        horizon_(horizon),
        bound_(bound),
        forgivable_(4.0 * std::max(1e-12, std::abs(horizon) * 0x1p-52)),
        slices_(slices) {}

  /// Consume the next busy interval. Returns false once the outcome no
  /// longer depends on later intervals; call finish() then (or after the
  /// last interval).
  bool feed(const util::Interval& busy) {
    if (beyond_bound()) {
      state_ = State::kAborted;
      return false;
    }
    const double idle_hi = std::min(busy.lo, horizon_);
    if (idle_hi > cursor_) {
      take(idle_hi);
      if (need_ <= 0.0) {
        state_ = State::kDone;
        return false;
      }
    }
    cursor_ = std::max(cursor_, busy.hi);
    return cursor_ < horizon_;
  }

  /// Where the scan stands: every interval with hi <= cursor() is a no-op
  /// to feed() (it takes no idle time and moves no state feed() or finish()
  /// reads), so a caller may pass over it unfed.
  [[nodiscard]] double cursor() const { return cursor_; }

  /// The decision: true with `completion` set when feasible (the slices, if
  /// recorded, are then the allocation); false otherwise, with the recorded
  /// slices cleared.
  bool finish(double& completion) {
    if (state_ == State::kOpen) {
      if (cursor_ < horizon_ && !beyond_bound()) take(horizon_);
      // Insufficient idle time before the horizon (up to rounding).
      state_ = need_ > 1e-12 || !took_ ? State::kAborted : State::kDone;
    }
    if (state_ == State::kDone && !(end_ < bound_)) state_ = State::kAborted;
    if (state_ == State::kAborted) {
      if (slices_ != nullptr) slices_->clear();
      return false;
    }
    completion = end_;
    return true;
  }

 private:
  enum class State : unsigned char { kOpen, kDone, kAborted };

  /// The completion provably cannot be < bound, even if a later take or the
  /// horizon forgives a rounding residue (ending the allocation at end_).
  [[nodiscard]] bool beyond_bound() const {
    if (took_ && need_ <= forgivable_) return end_ >= bound_;
    return cursor_ + (need_ - forgivable_) >= bound_;
  }

  /// Fill the idle gap [cursor, gap_end). cursor + take can round one ulp
  /// past gap_end, into the next busy interval: the slice ends at gap_end at
  /// the latest. A demand left over only by rounding (the earlier gaps fell
  /// short of it by less than half an ulp of the cursor) cannot be carried
  /// by any slice here: the allocation is complete where it stands, rather
  /// than ending in an empty slice at this gap's start.
  void take(double gap_end) {
    const double take = std::min(need_, gap_end - cursor_);
    const double end = std::min(cursor_ + take, gap_end);
    if (end == cursor_ && took_) {
      need_ = 0.0;
      return;
    }
    end_ = end;
    if (slices_ != nullptr) slices_->push_back_disjoint(cursor_, end_);
    need_ -= take;
    took_ = true;
  }

  double cursor_;
  double need_;
  double horizon_;
  double bound_;
  /// Above what may still be forgiven (1e-12 s, or half an ulp), plus rounding.
  double forgivable_;
  util::IntervalSet* slices_;
  double end_ = 0.0;
  bool took_ = false;
  State state_ = State::kOpen;
};

/// Caller-owned reusable buffers for a planner's scans (the restricted
/// per-link ranges and the two union-merge ping-pong buffers), passed in
/// rather than hidden in `thread_local` state: every planner (one per shard
/// or sweep cell) brings its own.
// taps-threading: single-domain -- scratch owned by one planning domain.
struct TimeAllocScratch {
  struct Range {
    const util::Interval* first = nullptr;
    const util::Interval* last = nullptr;

    [[nodiscard]] std::size_t size() const { return static_cast<std::size_t>(last - first); }
    [[nodiscard]] bool empty() const { return first == last; }
  };

  std::vector<Range> ranges;
  std::vector<util::Interval> bufs[2];
};

/// Link `lid`'s occupancy restricted to what a scan from `now` stopping at
/// `stop` can read: from the first interval with hi > now up to (excluding)
/// the first with lo >= stop.
[[nodiscard]] TimeAllocScratch::Range restricted_range(const OccupancyMap& occupancy,
                                                       topo::LinkId lid, double now, double stop);

/// Union of `ranges` into `out` (smallest first, IntervalSet::unite's exact
/// coalescing), using `tmp` as the second merge buffer. Reorders `ranges`.
void unite_ranges(std::vector<TimeAllocScratch::Range>& ranges, std::vector<util::Interval>& out,
                  std::vector<util::Interval>& tmp);

/// Run `scan` over the k-way merge of `streams` (each sorted and internally
/// disjoint, e.g. a union and raw link ranges), ignoring intervals with
/// lo >= `horizon` exactly as restricted_range would, and return its
/// decision. Never materializes the union; passes over a stream's run of
/// intervals ending at or before the scan's cursor unfed; stops at
/// completion or abort. Consumes `streams`.
[[nodiscard]] bool scan_streams(std::span<TimeAllocScratch::Range> streams, double horizon,
                                IdleScan& scan, double& completion);

}  // namespace taps::core
