// FlowStateArena's single-threaded contract: every field of every slot
// reads back what was written across many chunks, references into a slot
// survive growth (chunks never move), and the rate-dirty list holds a flow
// once between drains however often its rate changes.
#include "net/flow_arena.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace taps::net {
namespace {

constexpr std::size_t kSlots = 24 * FlowStateArena::kChunkSize;

FlowState state_for(std::size_t i) { return static_cast<FlowState>(i % 5); }

TEST(FlowArena, EveryFieldReadsBackAcrossChunks) {
  FlowStateArena arena;
  for (std::size_t i = 0; i < kSlots; ++i) {
    ASSERT_EQ(arena.push(static_cast<double>(i) + 1.0), i);
  }
  ASSERT_EQ(arena.size(), kSlots);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const FlowStateArena& ro = arena;
    bad += ro.remaining(i) != static_cast<double>(i) + 1.0 || ro.rate(i) != 0.0 ||
           ro.bytes_sent(i) != 0.0 || ro.completion_time(i) != -1.0 ||
           ro.state(i) != FlowState::kPending;
  }
  EXPECT_EQ(bad, 0u) << "slots not initialized as pushed";

  for (std::size_t i = 0; i < kSlots; ++i) {
    arena.remaining(i) = static_cast<double>(i) * 0.5;
    arena.bytes_sent(i) = static_cast<double>(i) * 2.0;
    arena.completion_time(i) = static_cast<double>(i) * 3.0;
    arena.state(i) = state_for(i);
    arena.set_rate(i, static_cast<double>(i) + 0.25);
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    const FlowStateArena& ro = arena;
    bad += ro.remaining(i) != static_cast<double>(i) * 0.5 ||
           ro.bytes_sent(i) != static_cast<double>(i) * 2.0 ||
           ro.completion_time(i) != static_cast<double>(i) * 3.0 ||
           ro.state(i) != state_for(i) || ro.rate(i) != static_cast<double>(i) + 0.25;
  }
  EXPECT_EQ(bad, 0u) << "slots do not read back what was written";
}

TEST(FlowArena, SlotReferencesSurviveGrowth) {
  FlowStateArena arena;
  for (std::size_t i = 0; i < 10; ++i) (void)arena.push(1.0);
  double& remaining = arena.remaining(3);
  FlowState& state = arena.state(3);
  const double& rate = arena.rate(3);
  for (std::size_t i = 10; i < kSlots; ++i) (void)arena.push(1.0);

  EXPECT_EQ(&remaining, &arena.remaining(3));
  EXPECT_EQ(&state, &arena.state(3));
  EXPECT_EQ(&rate, &arena.rate(3));
  remaining = 7.5;
  state = FlowState::kActive;
  arena.set_rate(3, 2.0);
  EXPECT_EQ(arena.remaining(3), 7.5);
  EXPECT_EQ(arena.state(3), FlowState::kActive);
  EXPECT_EQ(rate, 2.0);
}

TEST(FlowArena, DirtyListHoldsAFlowOnceAcrossAChunkBoundary) {
  FlowStateArena arena;
  const std::size_t last = FlowStateArena::kChunkSize - 1;  // last slot of chunk 0
  for (std::size_t i = 0; i <= last; ++i) (void)arena.push(1.0);
  arena.set_rate(last, 1.0);
  arena.set_rate(last, 1.0);  // unchanged: no entry
  // Growth into chunk 1 between the flow's two rate changes.
  const std::size_t next = arena.push(1.0);
  ASSERT_EQ(next, FlowStateArena::kChunkSize);
  arena.set_rate(last, 2.0);
  arena.set_rate(next, 3.0);
  arena.set_rate(next, 4.0);

  std::vector<FlowId> dirty;
  arena.drain_dirty(dirty);
  EXPECT_EQ(dirty, (std::vector<FlowId>{static_cast<FlowId>(last), static_cast<FlowId>(next)}));
  EXPECT_EQ(arena.rate(last), 2.0);
  EXPECT_EQ(arena.rate(next), 4.0);

  // The drain resets the flags: a later change lists the flow again.
  arena.set_rate(last, 5.0);
  arena.drain_dirty(dirty);
  EXPECT_EQ(dirty, (std::vector<FlowId>{static_cast<FlowId>(last)}));
  arena.drain_dirty(dirty);
  EXPECT_TRUE(dirty.empty());
}

}  // namespace
}  // namespace taps::net
