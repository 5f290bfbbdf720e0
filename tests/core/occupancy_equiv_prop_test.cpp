// Property: the hinted OccupancyMap fast paths agree exactly with the
// unoptimized reference scans on random mutate/query sequences.
//
// The replan optimization added two query shortcuts (per-link earliest-free
// hints and the fused allocate_time) while keeping the plain scans
// (IntervalSet search, and taps_oracle's allocate_time_reference) as
// references. These properties pin the
// equivalence on random instances — including interleaved mutations, which
// are exactly what invalidates hints.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/prop.hpp"
#include "core/full_replan_oracle.hpp"
#include "core/occupancy.hpp"
#include "core/time_allocation.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace taps::core {
namespace {

constexpr std::size_t kLinks = 6;

struct Op {
  enum Kind : int {
    kOccupy,         // add a random busy window on a random link
    kTrim,           // trim_before a random time on the whole map
    kClear,          // clear the whole map
    kQueryIndex,     // first_index_after: hinted vs IntervalSet binary search
    kQueryAllocate,  // fused allocate_time vs allocate_time_reference
    kQueryCollides,  // collides on a random probe set
  };
  Kind kind = kOccupy;
  int link = 0;
  double a = 0.0;
  double b = 0.0;

  friend std::ostream& operator<<(std::ostream& os, const Op& op) {
    static const char* names[] = {"occupy",      "trim",        "clear",
                                  "query_index", "query_alloc", "collides"};
    return os << names[op.kind] << "(link=" << op.link << ", a=" << op.a << ", b=" << op.b
              << ")";
  }
};

std::vector<Op> generate_ops(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    // Mutations and queries interleave ~1:2 so hints get exercised both
    // warm (repeated queries) and freshly invalidated (query after occupy).
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 2) {
      op.kind = Op::kOccupy;
    } else if (roll == 2) {
      op.kind = Op::kTrim;
    } else if (roll == 3) {
      op.kind = Op::kClear;
    } else {
      op.kind = static_cast<Op::Kind>(Op::kQueryIndex + (roll - 4) % 3);
    }
    op.link = static_cast<int>(rng.uniform_int(0, kLinks - 1));
    op.a = rng.uniform_real(0.0, 40.0);
    op.b = op.a + rng.uniform_real(0.05, 6.0);
    ops.push_back(op);
  }
  return ops;
}

/// A path over a prefix of the links, seeded off the op so different ops
/// exercise different subsets (including the single-link case).
topo::Path path_for(const Op& op) {
  topo::Path p;
  const int hops = 1 + op.link % static_cast<int>(kLinks);
  for (int l = 0; l < hops; ++l) p.links.push_back(static_cast<topo::LinkId>(l));
  return p;
}

// Deterministic per-op horizon spread in [1, 9]: tight horizons exercise the
// infeasible path, loose ones the early-exit path. Derived from the op so
// shrinking keeps cases reproducible.
double horizon_spread(const Op& op) {
  return 1.0 + 8.0 * (op.a - static_cast<double>(static_cast<int>(op.a)));
}

std::optional<std::string> check(const std::vector<Op>& ops) {
  OccupancyMap occ(kLinks);
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kOccupy: {
        // occupy() asserts slices don't collide: pre-filter with collides()
        // (itself cross-checked below) and skip colliding windows.
        topo::Path one;
        one.links.push_back(static_cast<topo::LinkId>(op.link));
        util::IntervalSet slices;
        slices.insert(op.a, op.b);
        if (!occ.collides(one, slices)) occ.occupy(one, slices);
        break;
      }
      case Op::kTrim:
        occ.trim_before(op.a);
        break;
      case Op::kClear:
        occ.clear();
        break;

      case Op::kQueryIndex: {
        const auto lid = static_cast<topo::LinkId>(op.link);
        const std::size_t hinted = occ.first_index_after(lid, op.a);
        const std::size_t plain = occ.link(lid).first_index_after(op.a);
        if (hinted != plain) {
          std::ostringstream os;
          os << "first_index_after(link=" << op.link << ", from=" << op.a << "): hinted "
             << hinted << " != reference " << plain;
          return os.str();
        }
        // Ask again at an earlier time: forces the hint-miss path.
        const double earlier = op.a / 2.0;
        if (occ.first_index_after(lid, earlier) != occ.link(lid).first_index_after(earlier)) {
          return "first_index_after mismatch on backward re-query";
        }
        break;
      }

      case Op::kQueryAllocate: {
        const topo::Path p = path_for(op);
        const double duration = op.b - op.a;
        const double horizon = op.a + duration * horizon_spread(op);
        const TimeAllocation fast = allocate_time(occ, p, op.a, duration, horizon);
        const TimeAllocation ref = allocate_time_reference(occ, p, op.a, duration, horizon);
        if (fast.feasible() != ref.feasible() || !(fast.slices == ref.slices) ||
            fast.completion != ref.completion) {
          std::ostringstream os;
          os << "allocate_time(from=" << op.a << ", dur=" << duration
             << ", horizon=" << horizon << "): fused {" << fast.slices
             << ", completion=" << fast.completion << "} != reference {" << ref.slices
             << ", completion=" << ref.completion << "}";
          return os.str();
        }
        if (fast.feasible() && !fast.slices.check_invariants()) {
          return "fused allocate_time broke canonical form";
        }
        if (ref.feasible()) {
          // Branch-and-bound contract: a bound above the true completion
          // must not change the result; a bound at (or below) it must abort.
          const TimeAllocation loose =
              allocate_time(occ, p, op.a, duration, horizon, ref.completion + 1.0);
          if (!(loose.slices == ref.slices)) {
            return "bounded allocate_time diverged under a loose bound";
          }
          const TimeAllocation tight =
              allocate_time(occ, p, op.a, duration, horizon, ref.completion);
          if (tight.feasible()) {
            return "bounded allocate_time returned a completion at/past its bound";
          }
          // single_link_completion is a lower bound on any path through the
          // link (tolerance: its prefix-summation rounding, well under the
          // kLbSlack plan_one_flow prunes with).
          for (const topo::LinkId lid : p.links) {
            const double lb = occ.single_link_completion(lid, op.a, duration);
            if (lb > ref.completion + 1e-9) {
              std::ostringstream os;
              os << "single_link_completion(link=" << lid << ") = " << lb
                 << " exceeds the path completion " << ref.completion;
              return os.str();
            }
          }
        }
        // On a single-link path with no horizon pressure, the lower bound is
        // the exact completion (same math as the reference, summed prefix-
        // style) — pin it against the reference allocator.
        topo::Path one;
        one.links.push_back(static_cast<topo::LinkId>(op.link));
        const double lb1 = occ.single_link_completion(
            static_cast<topo::LinkId>(op.link), op.a, duration);
        const TimeAllocation ref1 = allocate_time_reference(occ, one, op.a, duration, 1e12);
        if (!ref1.feasible() || lb1 < ref1.completion - 1e-9 || lb1 > ref1.completion + 1e-9) {
          std::ostringstream os;
          os << "single_link_completion(link=" << op.link << ", from=" << op.a
             << ", need=" << duration << ") = " << lb1 << " != single-link reference "
             << ref1.completion;
          return os.str();
        }
        break;
      }

      case Op::kQueryCollides: {
        const topo::Path p = path_for(op);
        util::IntervalSet probe;
        probe.insert(op.a, op.b);
        probe.insert(op.b + 1.0, op.b + 1.5);
        bool expect = false;
        for (const topo::LinkId lid : p.links) {
          for (const auto& iv : probe.intervals()) {
            if (occ.link(lid).intersects(iv.lo, iv.hi)) expect = true;
          }
        }
        if (occ.collides(p, probe) != expect) return "collides mismatch";
        break;
      }
    }
  }
  return std::nullopt;
}

TAPS_PROP(OccupancyEquivProp, HintedQueriesMatchReferenceScans, 400) {
  prop.for_all(generate_ops, check);
}

}  // namespace
}  // namespace taps::core
