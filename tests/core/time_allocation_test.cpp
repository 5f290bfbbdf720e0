#include "core/time_allocation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/full_replan_oracle.hpp"

namespace taps::core {
namespace {

topo::Path path_of(std::initializer_list<topo::LinkId> ids) {
  topo::Path p;
  p.links = ids;
  return p;
}

TEST(TimeAllocation, IdlePathStartsImmediately) {
  const OccupancyMap occ(3);
  const TimeAllocation a = allocate_time(occ, path_of({0, 1}), 1.0, 2.0, 10.0);
  ASSERT_TRUE(a.feasible());
  EXPECT_DOUBLE_EQ(a.completion, 3.0);
  ASSERT_EQ(a.slices.size(), 1u);
  EXPECT_EQ(a.slices.intervals()[0], (util::Interval{1.0, 3.0}));
}

TEST(TimeAllocation, AvoidsBusyTimeOnAnyLink) {
  OccupancyMap occ(3);
  // Link 0 busy [0,1), link 1 busy [2,3): union blocks both windows.
  {
    util::IntervalSet s;
    s.insert(0.0, 1.0);
    topo::Path p0;
    p0.links = {0};
    occ.occupy(p0, s);
  }
  {
    util::IntervalSet s;
    s.insert(2.0, 3.0);
    topo::Path p1;
    p1.links = {1};
    occ.occupy(p1, s);
  }
  const TimeAllocation a = allocate_time(occ, path_of({0, 1}), 0.0, 2.0, 10.0);
  ASSERT_TRUE(a.feasible());
  ASSERT_EQ(a.slices.size(), 2u);
  EXPECT_EQ(a.slices.intervals()[0], (util::Interval{1.0, 2.0}));
  EXPECT_EQ(a.slices.intervals()[1], (util::Interval{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.completion, 4.0);
}

TEST(TimeAllocation, InfeasibleBeforeHorizon) {
  OccupancyMap occ(1);
  util::IntervalSet s;
  s.insert(0.0, 3.0);
  topo::Path p0;
  p0.links = {0};
  occ.occupy(p0, s);
  // Deadline 4 leaves one idle unit; two units cannot fit.
  const TimeAllocation a = allocate_time(occ, path_of({0}), 0.0, 2.0, 4.0);
  EXPECT_FALSE(a.feasible());
}

TEST(TimeAllocation, ExactFitAtHorizon) {
  OccupancyMap occ(1);
  const TimeAllocation a = allocate_time(occ, path_of({0}), 0.0, 4.0, 4.0);
  ASSERT_TRUE(a.feasible());
  EXPECT_DOUBLE_EQ(a.completion, 4.0);
}

TEST(TimeAllocation, ZeroDurationInfeasible) {
  const OccupancyMap occ(1);
  EXPECT_FALSE(allocate_time(occ, path_of({0}), 0.0, 0.0, 10.0).feasible());
}

TEST(TimeAllocation, HorizonBeforeNowInfeasible) {
  const OccupancyMap occ(1);
  EXPECT_FALSE(allocate_time(occ, path_of({0}), 5.0, 1.0, 4.0).feasible());
}

TEST(TimeAllocation, RoundingResidueEndsTheAllocationWithoutAnEmptySlice) {
  // The idle gap before a busy interval is one ulp shorter than the demand,
  // so filling it leaves ~1.4e-17 s, less than half an ulp of 1.0 where the
  // next gap starts: no slice can carry it. The allocation must end at the
  // first gap, not add the empty slice [1, 1) and report completion 1.
  const double gap_end = std::nextafter(0.1, 0.0);
  OccupancyMap occ(1);
  util::IntervalSet busy;
  busy.insert(gap_end, 1.0);
  occ.occupy(path_of({0}), busy);
  const util::IntervalSet want{util::Interval{0.0, gap_end}};

  const TimeAllocation a = allocate_time(occ, path_of({0}), 0.0, 0.1, 10.0);
  ASSERT_TRUE(a.feasible());
  EXPECT_EQ(a.slices, want);
  EXPECT_TRUE(a.slices.check_invariants());
  EXPECT_EQ(a.completion, gap_end);
  EXPECT_EQ(occ.link(0).allocate_earliest(0.0, 0.1, 10.0), want);
}

}  // namespace
}  // namespace taps::core
