// Property: the hinted OccupancyMap fast paths and the planner's scans agree
// exactly with the unoptimized reference scans on random mutate/query
// sequences.
//
// The replan optimization added query shortcuts (per-link earliest-free
// hints, busy-prefix sums kept across splices, the fused allocate_time and
// the planner's streamed scan, both of which pass over intervals that
// cannot change their result) while keeping the plain scans (IntervalSet
// search, and taps_oracle's allocate_time_reference) as references. These
// properties pin the equivalence on random instances — including
// interleaved mutations, which are exactly what invalidates hints and cuts
// back prefix sums — on exact fits (a demand that fills the gap before a
// busy interval up to a rounding residue, which random and dyadic values
// never leave), on fragmented occupancy (one long busy interval over runs of
// short ones, where the scans skip whole runs), and on journaled
// occupy/vacate/rollback sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/prop.hpp"
#include "core/full_replan_oracle.hpp"
#include "core/occupancy.hpp"
#include "core/path_allocation.hpp"
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
    kQueryExactFit,  // as kQueryAllocate, `now` set so the demand fits a gap exactly
  };
  Kind kind = kOccupy;
  int link = 0;
  double a = 0.0;
  double b = 0.0;
  int nudge = 0;  // kQueryExactFit: ulps to move `now` by

  friend std::ostream& operator<<(std::ostream& os, const Op& op) {
    static const char* names[] = {"occupy",   "trim",     "clear",    "query_index",
                                  "query_alloc", "collides", "exact_fit"};
    os.precision(17);
    return os << names[op.kind] << "(link=" << op.link << ", a=" << op.a << ", b=" << op.b
              << ", nudge=" << op.nudge << ")";
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
    } else if (roll == 9) {
      op.kind = Op::kQueryExactFit;
    } else {
      op.kind = static_cast<Op::Kind>(Op::kQueryIndex + (roll - 4) % 3);
    }
    op.link = static_cast<int>(rng.uniform_int(0, kLinks - 1));
    op.a = rng.uniform_real(0.0, 40.0);
    op.b = op.a + rng.uniform_real(0.05, 6.0);
    op.nudge = static_cast<int>(rng.uniform_int(-2, 2));
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

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Algorithm 3 as the candidate tree's leaves run it: scan_streams over one
/// union of the path's first half of links (unite_ranges, as the tree's
/// shared unions are built) and the raw tails of the rest, each from its
/// first interval with hi > now.
TimeAllocation streamed(const OccupancyMap& occ, const topo::Path& p, double now,
                        double duration, double horizon, double bound) {
  TimeAllocation out;
  if (duration <= 0.0 || horizon <= now) return out;
  TimeAllocScratch sc;
  const std::size_t half = p.links.size() / 2;
  for (std::size_t k = 0; k < half; ++k) {
    sc.ranges.push_back(restricted_range(occ, p.links[k], now, horizon));
  }
  unite_ranges(sc.ranges, sc.bufs[0], sc.bufs[1]);
  const std::vector<util::Interval>& united = sc.bufs[0];
  std::vector<TimeAllocScratch::Range> streams{{united.data(), united.data() + united.size()}};
  for (std::size_t k = half; k < p.links.size(); ++k) {
    const auto& ivs = occ.link(p.links[k]).intervals();
    streams.push_back(TimeAllocScratch::Range{ivs.data() + occ.first_index_after(p.links[k], now),
                                              ivs.data() + ivs.size()});
  }
  IdleScan scan(now, duration, horizon, bound, &out.slices);
  double completion = 0.0;
  if (scan_streams(streams, horizon, scan, completion)) out.completion = completion;
  return out;
}

/// The contracts of Algorithm 3 and of the bounds that prune it, for one
/// allocation of `duration` seconds on `p` from `now`:
///  - the fused allocate_time and the planner's streamed scan equal
///    allocate_time_reference bitwise;
///  - a bounded scan (either) returns the unbounded result when that
///    completion lies below the bound, and aborts at (or below) it;
///  - a pruning bound (pruning_link_bound) never exceeds the completion by
///    more than kLbSlack.
std::optional<std::string> check_allocate(const OccupancyMap& occ, const topo::Path& p, double now,
                                          double duration, double horizon) {
  const TimeAllocation ref = allocate_time_reference(occ, p, now, duration, horizon);
  std::ostringstream os;
  os.precision(17);
  os << "allocate_time(from=" << now << ", dur=" << duration << ", horizon=" << horizon << "): ";
  const auto differs = [&ref](const TimeAllocation& a) {
    return a.feasible() != ref.feasible() || !(a.slices == ref.slices) ||
           !same_bits(a.completion, ref.completion);
  };
  const TimeAllocation fast = allocate_time(occ, p, now, duration, horizon);
  if (differs(fast)) {
    os << "fused {" << fast.slices << ", completion=" << fast.completion << "} != reference {"
       << ref.slices << ", completion=" << ref.completion << "}";
    return os.str();
  }
  if (fast.feasible() && !fast.slices.check_invariants()) {
    return "fused allocate_time broke canonical form";
  }
  const TimeAllocation scanned = streamed(occ, p, now, duration, horizon, kInf);
  if (differs(scanned)) {
    os << "streamed {" << scanned.slices << ", completion=" << scanned.completion
       << "} != reference {" << ref.slices << ", completion=" << ref.completion << "}";
    return os.str();
  }
  if (!ref.feasible()) return std::nullopt;
  for (const double bound : {std::nextafter(ref.completion, kInf), ref.completion + 1.0}) {
    for (const bool fused : {true, false}) {
      const TimeAllocation loose = fused ? allocate_time(occ, p, now, duration, horizon, bound)
                                         : streamed(occ, p, now, duration, horizon, bound);
      if (differs(loose)) {
        os << (fused ? "fused" : "streamed") << " bounded by " << bound << ": {" << loose.slices
           << "} != unbounded {" << ref.slices << ", completion=" << ref.completion << "}";
        return os.str();
      }
    }
  }
  if (allocate_time(occ, p, now, duration, horizon, ref.completion).feasible() ||
      streamed(occ, p, now, duration, horizon, ref.completion).feasible()) {
    return os.str() + "returned a completion at its bound";
  }
  for (const topo::LinkId lid : p.links) {
    const double lb = pruning_link_bound(occ, lid, now, duration);
    if (lb > ref.completion + kLbSlack) {
      os << "pruning bound of link " << lid << " = " << lb << " exceeds the completion "
         << ref.completion << " by more than kLbSlack";
      return os.str();
    }
  }
  return std::nullopt;
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
        const double duration = op.b - op.a;
        const double horizon = op.a + duration * horizon_spread(op);
        const topo::Path p = path_for(op);
        if (auto err = check_allocate(occ, p, op.a, duration, horizon)) return err;
        // Off exact fits, single_link_completion for the full demand is a
        // lower bound on any path through the link (tolerance: its
        // prefix-summation rounding).
        const TimeAllocation ref = allocate_time_reference(occ, p, op.a, duration, horizon);
        for (const topo::LinkId lid : p.links) {
          const double lb = occ.single_link_completion(lid, op.a, duration);
          if (ref.feasible() && lb > ref.completion + 1e-9) {
            std::ostringstream os;
            os << "single_link_completion(link=" << lid << ") = " << lb
               << " exceeds the path completion " << ref.completion;
            return os.str();
          }
        }
        // On a single-link path with no horizon pressure, the lower bound is
        // the exact completion (same math as the reference, summed prefix-
        // style) — pin it against the reference allocator. Not at an exact
        // fit: there the reference forgives a residue the prefix sums keep.
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

      case Op::kQueryExactFit: {
        // The first busy interval of the path's union starting after op.a;
        // `now` sits the demand's length before it, give or take a few ulps.
        const topo::Path p = path_for(op);
        const util::IntervalSet busy = path_union(occ, p);
        const std::size_t k = busy.first_index_after(op.a);
        if (k == busy.size() || busy.intervals()[k].lo <= op.a) break;
        const double gap_end = busy.intervals()[k].lo;
        const double duration = op.b - op.a;
        double now = gap_end - duration;
        for (int u = 0; u < std::abs(op.nudge); ++u) {
          now = std::nextafter(now, op.nudge > 0 ? kInf : -kInf);
        }
        if (!(now >= 0.0)) break;
        if (auto err = check_allocate(occ, p, now, duration, gap_end + horizon_spread(op))) {
          return err;
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

/// One link busy on [2.6959270866493137, 3.6959270866493137). From `now` the
/// demand overfills the gap before it by under half an ulp: now + demand
/// rounds to the busy start. Algorithm 3 forgives that residue and completes
/// at the busy start. A bounded scan must agree with it (it used to carry
/// the residue past the busy interval, where the bound aborted it), and the
/// pruning bound must not jump the busy interval (single_link_completion
/// for the full demand does).
TEST(OccupancyEquivProp, ExactFitResidueKeepsBothContracts) {
  const double busy_lo = 2.6959270866493137;
  const double busy_hi = 3.6959270866493137;
  const double now = 2.2565730296740014;
  const double demand = 0.43935405697531249;
  OccupancyMap occ(1);
  topo::Path link;
  link.links.push_back(0);
  util::IntervalSet busy;
  busy.insert(busy_lo, busy_hi);
  occ.occupy(link, busy);
  ASSERT_EQ(now + demand, busy_lo);
  ASSERT_LT(busy_lo - now, demand);  // the gap falls short by a residue
  for (const double horizon : {4.9281373210168429, kInf}) {
    const TimeAllocation ref = allocate_time_reference(occ, link, now, demand, horizon);
    ASSERT_TRUE(ref.feasible());
    EXPECT_EQ(ref.completion, busy_lo);
    for (const double bound : {ref.completion + 1.0, 3.0}) {
      const TimeAllocation bounded = allocate_time(occ, link, now, demand, horizon, bound);
      EXPECT_TRUE(bounded.feasible()) << "bound " << bound << ", horizon " << horizon;
      EXPECT_EQ(bounded.completion, busy_lo) << "bound " << bound << ", horizon " << horizon;
    }
    EXPECT_EQ(check_allocate(occ, link, now, demand, horizon), std::nullopt);
  }
  EXPECT_LE(pruning_link_bound(occ, 0, now, demand), busy_lo + kLbSlack);
}


// ---- Fragmented occupancy: the burst_admit shape ----

/// Link 0 carries one long busy interval, as a hot host's uplink does after
/// a burst of its flows; the other links carry runs of short intervals
/// beneath and around it, as the fabric links those flows shared do. Once a
/// scan or merge has passed the long interval, whole runs end behind it.
struct FragOp {
  enum Kind : int { kRun, kQuery };
  Kind kind = kRun;
  int link = 0;      // kRun: the link; kQuery: mask of links 1.. on the path beside link 0
  double lo = 0.0;   // kRun: the first interval's start; kQuery: now
  double len = 0.0;  // kRun: each interval's length; kQuery: the demand
  double gap = 0.0;  // kRun: idle time between intervals; kQuery: horizon - now
  int count = 1;     // kRun: intervals in the run

  friend std::ostream& operator<<(std::ostream& os, const FragOp& op) {
    os.precision(17);
    if (op.kind == kRun) {
      return os << "run(link=" << op.link << ", lo=" << op.lo << ", len=" << op.len
                << ", gap=" << op.gap << ", count=" << op.count << ")";
    }
    return os << "query(mask=" << op.link << ", now=" << op.lo << ", demand=" << op.len
              << ", horizon=now+" << op.gap << ")";
  }
};

std::vector<FragOp> generate_fragmented(util::Rng& rng) {
  std::vector<FragOp> ops;
  FragOp hot;
  hot.lo = rng.uniform_real(0.0, 4.0);
  hot.len = rng.uniform_real(8.0, 30.0);
  ops.push_back(hot);
  const double hot_end = hot.lo + hot.len;
  const auto n = rng.uniform_int(6, 40);
  for (std::int64_t i = 0; i < n; ++i) {
    FragOp op;
    if (rng.bernoulli(0.4)) {
      // Runs start from a little before the long interval to near its end,
      // so they lie beneath it, cross its end or carry on past it; most are
      // longer than skip_ended's linear probe.
      op.kind = FragOp::kRun;
      op.link = static_cast<int>(rng.uniform_int(rng.bernoulli(0.1) ? 0 : 1, kLinks - 1));
      op.lo = std::max(0.0, rng.uniform_real(hot.lo - 2.0, hot_end));
      op.len = rng.uniform_real(0.02, 0.5);
      op.gap = rng.uniform_real(0.005, 0.4);
      op.count = static_cast<int>(rng.uniform_int(1, 80));
    } else {
      op.kind = FragOp::kQuery;
      op.link = static_cast<int>(rng.uniform_int(0, (1 << (kLinks - 1)) - 1));
      op.lo = rng.uniform_real(0.0, hot_end + 2.0);
      op.len = rng.bernoulli(0.7) ? rng.uniform_real(0.01, 4.0) : rng.uniform_real(4.0, 20.0);
      op.gap = op.len * rng.uniform_real(1.0, 12.0);
    }
    ops.push_back(op);
  }
  return ops;
}

std::optional<std::string> check_fragmented(const std::vector<FragOp>& ops) {
  OccupancyMap occ(kLinks);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const FragOp& op = ops[i];
    if (op.kind == FragOp::kRun) {
      topo::Path one;
      one.links.push_back(static_cast<topo::LinkId>(op.link));
      for (int k = 0; k < op.count; ++k) {
        const double lo = op.lo + k * (op.len + op.gap);
        util::IntervalSet slice;
        slice.insert(lo, lo + op.len);
        if (!occ.collides(one, slice)) occ.occupy(one, slice);
      }
      continue;
    }
    topo::Path p;
    p.links.push_back(0);
    for (int l = 1; l < static_cast<int>(kLinks); ++l) {
      if (((op.link >> (l - 1)) & 1) != 0) p.links.push_back(static_cast<topo::LinkId>(l));
    }
    if (auto err = check_allocate(occ, p, op.lo, op.len, op.lo + op.gap)) {
      return "op " + std::to_string(i) + ": " + *err;
    }
  }
  return std::nullopt;
}

TAPS_PROP(OccupancyEquivProp, FragmentedOccupancyMatchesReference, 300) {
  prop.for_all(generate_fragmented, check_fragmented);
}

// ---- Journaled mutations: busy-prefix sums kept across splices ----

/// Logged occupy/vacate with checkpoints and rollbacks, as the scheduler's
/// sessions run them, between the unlogged mutations a commit allows.
struct JournalOp {
  enum Kind : int { kOccupyLogged, kVacate, kCheckpoint, kRollback, kOccupy, kTrim, kClear };
  Kind kind = kOccupyLogged;
  int link = 0;
  double a = 0.0;
  double b = 0.0;
  bool two_links = false;  // the path also crosses link (link + 3) % kLinks
  bool two_slices = false;  // a second slice follows [a, b) after a gap

  friend std::ostream& operator<<(std::ostream& os, const JournalOp& op) {
    static const char* names[] = {"occupy_logged", "vacate", "checkpoint", "rollback",
                                  "occupy",        "trim",   "clear"};
    os.precision(17);
    return os << names[op.kind] << "(link=" << op.link << ", a=" << op.a << ", b=" << op.b
              << ", two_links=" << op.two_links << ", two_slices=" << op.two_slices << ")";
  }
};

std::vector<JournalOp> generate_journaled(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 80));
  std::vector<JournalOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    JournalOp op;
    // Mostly session work; the unlogged mutations (a commit point each)
    // are rare, a clear rarest.
    const auto roll = rng.uniform_int(0, 39);
    if (roll < 16) {
      op.kind = JournalOp::kOccupyLogged;
    } else if (roll < 24) {
      op.kind = JournalOp::kVacate;
    } else if (roll < 28) {
      op.kind = JournalOp::kCheckpoint;
    } else if (roll < 34) {
      op.kind = JournalOp::kRollback;
    } else if (roll < 37) {
      op.kind = JournalOp::kOccupy;
    } else {
      op.kind = roll < 39 ? JournalOp::kTrim : JournalOp::kClear;
    }
    op.link = static_cast<int>(rng.uniform_int(0, kLinks - 1));
    op.a = rng.uniform_real(0.0, 30.0);
    op.b = op.a + rng.uniform_real(0.05, 4.0);
    op.two_links = rng.bernoulli(0.3);
    op.two_slices = rng.bernoulli(0.3);
    ops.push_back(op);
  }
  return ops;
}

/// Every link's single_link_completion on `occ` must equal, bitwise, that of
/// a freshly built map holding the same intervals, over a grid of starts
/// (each interval's start and midpoint, and before everything) and demands
/// (inside a gap, across several intervals, past the last).
std::optional<std::string> same_bounds_as_fresh(const OccupancyMap& occ) {
  OccupancyMap fresh(kLinks);
  for (topo::LinkId l = 0; l < static_cast<topo::LinkId>(kLinks); ++l) {
    fresh.occupy(topo::Path{{l}}, occ.link(l));
  }
  for (topo::LinkId l = 0; l < static_cast<topo::LinkId>(kLinks); ++l) {
    std::vector<double> froms{0.0};
    for (const util::Interval& iv : occ.link(l).intervals()) {
      froms.push_back(iv.lo);
      froms.push_back(0.5 * (iv.lo + iv.hi));
    }
    for (const double from : froms) {
      for (const double need : {0.3, 3.0, 1e3}) {
        const double got = occ.single_link_completion(l, from, need);
        const double want = fresh.single_link_completion(l, from, need);
        if (!same_bits(got, want)) {
          std::ostringstream os;
          os.precision(17);
          os << "single_link_completion(link=" << l << ", from=" << from << ", need=" << need
             << ") = " << got << ", fresh map " << want;
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_journaled(const std::vector<JournalOp>& ops) {
  OccupancyMap occ(kLinks);
  OccupancyJournal journal;
  std::vector<OccupancyCheckpoint> marks;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const JournalOp& op = ops[i];
    topo::Path path;
    path.links.push_back(static_cast<topo::LinkId>(op.link));
    if (op.two_links) {
      path.links.push_back(static_cast<topo::LinkId>((op.link + 3) % static_cast<int>(kLinks)));
    }
    util::IntervalSet slices;
    slices.insert(op.a, op.b);
    if (op.two_slices) slices.insert(op.b + 0.5, op.b + 0.5 + 0.5 * (op.b - op.a));
    switch (op.kind) {
      case JournalOp::kOccupyLogged:
        if (!occ.collides(path, slices)) occ.occupy(path, slices, &journal);
        break;
      case JournalOp::kVacate:
        occ.vacate(path, slices, journal);
        break;
      case JournalOp::kCheckpoint:
        marks.push_back(OccupancyMap::checkpoint(journal));
        break;
      case JournalOp::kRollback:
        occ.rollback(journal, marks.empty() ? OccupancyCheckpoint{} : marks.back());
        if (!marks.empty()) marks.pop_back();
        break;
      case JournalOp::kOccupy:
      case JournalOp::kTrim:
      case JournalOp::kClear:
        // Unlogged mutations happen between sessions, with the journal
        // committed (dropped) first.
        journal.clear();
        marks.clear();
        if (op.kind == JournalOp::kOccupy) {
          if (!occ.collides(path, slices)) occ.occupy(path, slices);
        } else if (op.kind == JournalOp::kTrim) {
          occ.trim_before(op.a);
        } else {
          occ.clear();
        }
        break;
    }
    if (auto err = same_bounds_as_fresh(occ)) return "after op " + std::to_string(i) + ": " + *err;
  }
  return std::nullopt;
}

TAPS_PROP(OccupancyEquivProp, JournaledSplicesKeepPrefixSumsExact, 300) {
  prop.for_all(generate_journaled, check_journaled);
}

}  // namespace
}  // namespace taps::core
