// The defining TAPS data-plane invariant (paper Sec. IV): "there is at most
// one flow on transmission on each link at any time". Verified on the actual
// transmission segments of full simulations — not just on planned slices —
// by recording every (flow, interval) a simulation produces and checking
// per-link disjointness.
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <map>

#include "common/exclusivity_stream.hpp"
#include "common/fixtures.hpp"
#include "core/taps_scheduler.hpp"
#include "topo/fattree.hpp"
#include "workload/task_generator.hpp"

namespace taps::core {
namespace {

/// Records per-link transmission intervals and reports overlaps.
class ExclusiveUseChecker final : public sim::TransmitObserver {
 public:
  void on_transmit(const net::Flow& f, double t0, double t1, double bytes) override {
    if (bytes <= 0.0) return;
    for (const topo::LinkId lid : f.path.links) {
      auto& occupied = per_link_[lid];
      if (occupied.intersects(t0 + kSlack, t1 - kSlack)) ++violations_;
      occupied.insert(t0, t1);
    }
  }

  [[nodiscard]] std::size_t violations() const { return violations_; }
  [[nodiscard]] std::size_t links_used() const { return per_link_.size(); }

 private:
  // Adjacent slices of consecutive flows legitimately touch at endpoints;
  // only interior overlap is a violation.
  static constexpr double kSlack = 1e-9;
  std::map<topo::LinkId, util::IntervalSet> per_link_;
  std::size_t violations_ = 0;
};

class ExclusiveUse : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExclusiveUse, HoldsOnSingleRootedWorkload) {
  const auto topology = workload::make_topology(workload::Scenario::single_rooted(false));
  net::Network net(*topology);
  workload::WorkloadConfig wc;
  wc.task_count = 20;
  wc.flows_per_task_mean = 12.0;
  util::Rng rng(GetParam());
  (void)workload::generate(net, wc, rng);

  TapsScheduler sched;
  ExclusiveUseChecker checker;
  sim::FluidSimulator simulator(net, sched);
  simulator.set_observer(&checker);
  (void)simulator.run();

  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_GT(checker.links_used(), 0u);
}

TEST_P(ExclusiveUse, HoldsOnFatTreeMultipath) {
  const auto topology = workload::make_topology(workload::Scenario::fat_tree(false));
  net::Network net(*topology);
  workload::WorkloadConfig wc;
  wc.task_count = 10;
  wc.flows_per_task_mean = 24.0;
  wc.arrival_rate = 1000.0;
  util::Rng rng(GetParam() + 100);
  (void)workload::generate(net, wc, rng);

  TapsScheduler sched;
  ExclusiveUseChecker checker;
  sim::FluidSimulator simulator(net, sched);
  simulator.set_observer(&checker);
  (void)simulator.run();

  EXPECT_EQ(checker.violations(), 0u);
}

TEST_P(ExclusiveUse, HoldsWithMultiWaveTasks) {
  const auto topology = workload::make_topology(workload::Scenario::single_rooted(false));
  net::Network net(*topology);
  workload::WorkloadConfig wc;
  wc.task_count = 15;
  wc.flows_per_task_mean = 10.0;
  wc.waves_per_task = 3;
  util::Rng rng(GetParam() + 200);
  (void)workload::generate(net, wc, rng);

  TapsScheduler sched;
  ExclusiveUseChecker checker;
  sim::FluidSimulator simulator(net, sched);
  simulator.set_observer(&checker);
  (void)simulator.run();

  EXPECT_EQ(checker.violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExclusiveUse, ::testing::Values(1u, 7u, 42u, 1337u));

// Committed slices must be disjoint per link to the last bit, not just up to
// a slack: a slice that fills an idle gap has to end exactly where the next
// busy interval starts, even when `cursor + (gap_end - cursor)` rounds one
// ulp past it. The stream (tests/common/exclusivity_stream.hpp) reaches such
// gaps at every seed below.
class SliceExclusivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SliceExclusivity, CommittedSlicesNeverShareALinkInstant) {
  const topo::FatTree ft(topo::FatTreeConfig{4, test::kExclusivityCapacity});
  net::Network net(ft);
  for (const net::FlowSpec& f : test::exclusivity_stream(ft, GetParam())) {
    const std::vector<net::FlowSpec> flows{f};
    (void)net.add_task(0.0, f.deadline, flows);
  }

  TapsScheduler sched;
  sched.bind(net);
  std::vector<std::vector<util::Interval>> per_link(net.graph().link_count());
  for (std::size_t t = 0; t < net.tasks().size(); ++t) {
    sched.on_task_arrival(static_cast<net::TaskId>(t), 0.0);
    for (auto& ivs : per_link) ivs.clear();
    for (const net::Flow& fl : net.flows()) {
      if (!fl.active()) continue;
      const auto& sl = sched.slices(fl.id()).intervals();
      for (const topo::LinkId lid : fl.path.links) {
        auto& ivs = per_link[static_cast<std::size_t>(lid)];
        ivs.insert(ivs.end(), sl.begin(), sl.end());
      }
    }
    for (std::size_t lid = 0; lid < per_link.size(); ++lid) {
      auto& ivs = per_link[lid];
      std::sort(ivs.begin(), ivs.end(),
                [](const util::Interval& a, const util::Interval& b) { return a.lo < b.lo; });
      for (std::size_t k = 1; k < ivs.size(); ++k) {
        ASSERT_LE(ivs[k - 1].hi, ivs[k].lo)
            << std::setprecision(17) << "arrival " << t << ", link " << lid << ": ["
            << ivs[k - 1].lo << ", " << ivs[k - 1].hi << ") overlaps [" << ivs[k].lo << ", "
            << ivs[k].hi << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceExclusivity, ::testing::Values(5u, 24u, 35u));

// Sanity check of the checker itself: Fair Sharing multiplexes links, so it
// must report overlaps (otherwise the invariant tests above prove nothing).
TEST(ExclusiveUseChecker, DetectsFairSharingMultiplexing) {
  const auto topology = workload::make_topology(workload::Scenario::single_rooted(false));
  net::Network net(*topology);
  workload::WorkloadConfig wc;
  wc.task_count = 20;
  wc.flows_per_task_mean = 12.0;
  util::Rng rng(42);
  (void)workload::generate(net, wc, rng);

  const auto sched = exp::make_scheduler(exp::SchedulerKind::kFairSharing, 16);
  ExclusiveUseChecker checker;
  sim::FluidSimulator simulator(net, *sched);
  simulator.set_observer(&checker);
  (void)simulator.run();

  EXPECT_GT(checker.violations(), 0u);
}

}  // namespace
}  // namespace taps::core
