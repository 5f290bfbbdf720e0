// Every scheduler runs under the runtime invariant oracle
// (sim::InvariantChecker): capacity, byte conservation, monotone time and
// deadline discipline for all of them, plus exclusive link occupancy for
// TAPS. Randomized task sets come from the property kit, so a failing
// workload prints its seed and reproduces deterministically.
//
// The negative tests prove the oracle has teeth: a deliberately seeded
// planner mutation (core::FullReplanOracle's skip-occupy fault hook, which
// drops one flow's grant from the occupancy map) and a rogue rate
// assignment must both be caught.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "common/fixtures.hpp"
#include "common/prop.hpp"
#include "core/full_replan_oracle.hpp"
#include "sim/invariant_checker.hpp"
#include "workload/task_generator.hpp"

namespace taps::sched {
namespace {

void run_under_oracle(const workload::WorkloadConfig& wc, std::uint64_t workload_seed,
                      exp::SchedulerKind kind) {
  const auto topology = workload::make_topology(workload::Scenario::single_rooted(false));
  net::Network net(*topology);
  util::Rng rng(workload_seed);
  (void)workload::generate(net, wc, rng);

  const auto scheduler = exp::make_scheduler(kind, 16);
  sim::InvariantConfig cfg;
  cfg.exclusive_links = kind == exp::SchedulerKind::kTaps;
  sim::InvariantChecker oracle(net, cfg);
  sim::FluidSimulator simulator(net, *scheduler);
  simulator.set_observer(&oracle);
  (void)simulator.run();  // oracle throws InvariantViolation on any breach

  ASSERT_GT(oracle.segments(), 0u);
  ASSERT_GT(oracle.events(), 0u);
}

// Fixed-seed matrix: one named test per scheduler, so a regression points at
// the offending policy immediately.
class SchedulerOracle
    : public ::testing::TestWithParam<std::tuple<exp::SchedulerKind, std::uint64_t>> {};

TEST_P(SchedulerOracle, InvariantsHoldOnRandomizedWorkload) {
  const auto [kind, seed] = GetParam();
  workload::WorkloadConfig wc;
  wc.task_count = 20;
  wc.flows_per_task_mean = 10.0;
  run_under_oracle(wc, seed, kind);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchedulerOracle,
    ::testing::Combine(::testing::ValuesIn(exp::extended_schedulers()),
                       ::testing::Values(1u, 42u)),
    [](const auto& pinfo) {
      return std::string(exp::to_string(std::get<0>(pinfo.param))) + "_seed" +
             std::to_string(std::get<1>(pinfo.param));
    });

// Property form: workload parameters themselves are randomized (including
// multi-wave tasks and heavy-tailed sizes) and every scheduler must survive
// the oracle on the same task set.
struct WorkloadCase {
  int task_count = 0;
  double flows_per_task_mean = 0.0;
  double arrival_rate = 0.0;
  double mean_deadline = 0.0;
  int waves_per_task = 1;
  workload::SizeDistribution size_distribution = workload::SizeDistribution::kNormal;
  std::uint64_t workload_seed = 0;
};

std::ostream& operator<<(std::ostream& os, const WorkloadCase& c) {
  return os << "tasks=" << c.task_count << " flows_mean=" << c.flows_per_task_mean
            << " lambda=" << c.arrival_rate << " deadline_mean=" << c.mean_deadline
            << " waves=" << c.waves_per_task
            << " sizes=" << workload::to_string(c.size_distribution)
            << " workload_seed=" << c.workload_seed;
}

WorkloadCase generate_case(util::Rng& rng) {
  WorkloadCase c;
  c.task_count = static_cast<int>(rng.uniform_int(3, 18));
  c.flows_per_task_mean = rng.uniform_real(1.0, 12.0);
  c.arrival_rate = rng.uniform_real(50.0, 600.0);
  c.mean_deadline = rng.uniform_real(0.010, 0.080);
  c.waves_per_task = static_cast<int>(rng.uniform_int(1, 3));
  c.size_distribution =
      static_cast<workload::SizeDistribution>(rng.uniform_int(0, 2));
  c.workload_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000));
  return c;
}

TAPS_PROP(SchedulerOracleProp, AllSchedulersSurviveOracle, 10) {
  prop.for_all(generate_case, [](const WorkloadCase& c) -> std::optional<std::string> {
    workload::WorkloadConfig wc;
    wc.task_count = c.task_count;
    wc.flows_per_task_mean = c.flows_per_task_mean;
    wc.arrival_rate = c.arrival_rate;
    wc.mean_deadline = c.mean_deadline;
    wc.waves_per_task = c.waves_per_task;
    wc.size_distribution = c.size_distribution;
    for (const exp::SchedulerKind kind : exp::extended_schedulers()) {
      try {
        run_under_oracle(wc, c.workload_seed, kind);
      } catch (const sim::InvariantViolation& e) {
        return std::string(exp::to_string(kind)) + ": " + e.what();
      }
    }
    return std::nullopt;
  });
}

// ---- negative tests: the oracle must catch seeded faults ----------------

/// Two equal single-flow tasks sharing the dumbbell bottleneck, planned by
/// the full-replan oracle. With the planner mutation active, flow 0's
/// slices never stay in the occupancy map, so flow 1 is granted the same
/// interval and both transmit simultaneously — exactly the regression the
/// invariant checker exists to catch.
void run_faulted_taps(net::FlowId faulty_flow) {
  test::Dumbbell d = test::make_dumbbell(4);
  net::Network net(*d.topology);
  test::add_task(net, 0.0, 10.0, {test::flow(d.left[0], d.right[0], 4.0)});
  test::add_task(net, 0.0, 10.0, {test::flow(d.left[1], d.right[1], 4.0)});

  core::FullReplanOracle scheduler(core::TapsConfig{}, faulty_flow);
  sim::InvariantConfig cfg;
  cfg.exclusive_links = true;
  sim::InvariantChecker oracle(net, cfg);
  sim::FluidSimulator simulator(net, scheduler);
  simulator.set_observer(&oracle);
  (void)simulator.run();
}

TEST(SchedulerOracleNegative, SeededOccupancySkipIsCaught) {
  EXPECT_THROW(run_faulted_taps(0), sim::InvariantViolation);
}

TEST(SchedulerOracleNegative, SameScenarioPassesWithoutFault) {
  EXPECT_NO_THROW(run_faulted_taps(net::kInvalidFlow));
}

/// A scheduler that assigns twice the link capacity: the universal capacity
/// invariant (checked for every scheduler, not just TAPS) must fire.
class OverdriveScheduler final : public BaseScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Overdrive"; }
  void on_task_arrival(net::TaskId id, double now) override { admit_all_ecmp(id, now); }
  double assign_rates(double /*now*/) override {
    for (const net::FlowId fid : active_flows()) {
      net::Flow& f = net_->flow(fid);
      double capacity = sim::kInfinity;
      for (const topo::LinkId lid : f.path.links) {
        capacity = std::min(capacity, net_->link_capacity(lid));
      }
      f.set_rate(2.0 * capacity);
    }
    return sim::kInfinity;
  }
};

TEST(SchedulerOracleNegative, CapacityOverdriveIsCaught) {
  test::Dumbbell d = test::make_dumbbell(2);
  net::Network net(*d.topology);
  test::add_task(net, 0.0, 10.0, {test::flow(d.left[0], d.right[0], 4.0)});

  OverdriveScheduler scheduler;
  sim::InvariantChecker oracle(net);
  sim::FluidSimulator simulator(net, scheduler);
  simulator.set_observer(&oracle);
  EXPECT_THROW((void)simulator.run(), sim::InvariantViolation);
}

}  // namespace
}  // namespace taps::sched
