// Algorithm 3 of the paper: TimeAllocation(p, f).
//
// Given a candidate path p and a flow needing E seconds of transmission, the
// controller computes the union T_ocp of the occupied-time sets of p's links
// and allocates the first E seconds of idle time in its complement, starting
// from `now`. The flow's completion time on p is the end of the last
// allocated slice.
//
// allocate_time materializes T_ocp restricted to the window that can matter
// — each link's range starts at its earliest-free hint and stops at
// min(completion_bound, horizon) — into reused scratch buffers, then scans
// it with a branch-and-bound abort. Its output is identical to the textbook
// two-step (path_union, then IntervalSet::allocate_earliest), which lives in
// taps_oracle as core::allocate_time_reference; the equivalence property
// test drives both on random instances.
#pragma once

#include <limits>

#include "core/occupancy.hpp"

namespace taps::core {

// taps-threading: thread-compatible -- value result, owned by its caller.
struct TimeAllocation {
  util::IntervalSet slices;  // empty when infeasible before `horizon`
  double completion = 0.0;   // end of last slice; meaningless when infeasible

  [[nodiscard]] bool feasible() const { return !slices.empty(); }
};

/// Caller-owned reusable buffers for allocate_time_into (the restricted
/// per-link ranges and the two union-merge ping-pong buffers). Explicitly
/// threaded through instead of hidden `thread_local` state so concurrent
/// planners — the parallel per-pod advancement plan runs one per domain —
/// each bring their own, with no cross-domain scratch in sight of the
/// concurrency linter.
// taps-threading: single-domain -- scratch owned by one planning domain.
struct TimeAllocScratch {
  struct Range {
    const util::Interval* first = nullptr;
    const util::Interval* last = nullptr;

    [[nodiscard]] std::size_t size() const { return static_cast<std::size_t>(last - first); }
  };

  std::vector<Range> ranges;
  std::vector<util::Interval> bufs[2];
};

/// Allocate `duration` seconds on `path` starting at `now`, finishing no
/// later than `horizon` (the flow's deadline). Returns an infeasible result
/// when the path lacks enough idle time before the horizon.
///
/// `completion_bound` is a branch-and-bound cutoff for candidate-path races
/// (Algorithm 2 keeps only strictly-earlier completions): the scan aborts —
/// returning infeasible — as soon as the completion provably cannot be
/// < `completion_bound` (the remaining demand must land at or after the
/// sweep cursor, so completion >= cursor + remaining). A returned feasible
/// allocation is always the true earliest one and has
/// completion < completion_bound.
[[nodiscard]] TimeAllocation allocate_time(
    const OccupancyMap& occupancy, const topo::Path& path, double now, double duration,
    double horizon, double completion_bound = std::numeric_limits<double>::infinity());

/// Allocation core writing into a caller-owned `slices` set (cleared first,
/// so its capacity is reused across calls — the candidate-path race calls
/// this 16x per flow and discards most results). Returns feasibility;
/// `completion` is set only when feasible, and `slices` is left empty on
/// infeasibility/abort. Same semantics as allocate_time otherwise.
/// `scratch` (optional) reuses the merge buffers across calls; passing none
/// costs a fresh allocation per call, which only the oracle/test paths do.
[[nodiscard]] bool allocate_time_into(const OccupancyMap& occupancy, const topo::Path& path,
                                      double now, double duration, double horizon,
                                      double completion_bound, util::IntervalSet& slices,
                                      double& completion, TimeAllocScratch* scratch = nullptr);

}  // namespace taps::core
