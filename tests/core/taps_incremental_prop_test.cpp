// Bit-identity pin for incremental replanning: TapsScheduler's journaled
// in-place sessions must produce schedules BITWISE identical to
// core::FullReplanOracle's from-scratch replans on random scenarios — same
// admission/rejection/preemption decisions, same committed paths and
// slices, same per-link occupancy, same flow outcomes.
//
// The scenarios deliberately mix same-instant arrival cascades (maximum
// cross-arrival prefix reuse) with spread arrivals (transmission between
// commits breaks the reusable prefix), tight deadlines (rejects, compacting
// replans and their reverts) and multi-flow tasks (preemption validation),
// so every resume/restart path of the session runs under the comparison.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "common/fixtures.hpp"
#include "common/prop.hpp"
#include "common/taps_equiv.hpp"

namespace taps::core {
namespace {

struct FlowGen {
  std::size_t left = 0;
  std::size_t right = 0;
  double size = 1.0;
};

struct TaskGen {
  double arrival = 0.0;
  double slack = 1.0;  // deadline = arrival + slack
  std::vector<FlowGen> flows;
};

std::ostream& operator<<(std::ostream& os, const TaskGen& t) {
  os << "{t=" << t.arrival << " slack=" << t.slack << " flows=[";
  for (const FlowGen& f : t.flows) {
    os << "(" << f.left << "->" << f.right << " sz=" << f.size << ")";
  }
  return os << "]}";
}

constexpr int kSide = 6;

std::vector<TaskGen> gen_scenario(util::Rng& rng) {
  std::vector<TaskGen> tasks;
  const int n = static_cast<int>(rng.uniform_int(2, 14));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    // ~half the arrivals land on the same instant as the previous one
    // (cascades); the rest advance time so flows transmit between commits.
    if (i > 0 && !rng.bernoulli(0.5)) t += rng.uniform_real(0.1, 1.5);
    TaskGen task;
    task.arrival = t;
    // Mostly feasible-ish slacks with a tight tail to force rejections and
    // preemption attempts.
    task.slack = rng.bernoulli(0.25) ? rng.uniform_real(0.3, 1.0)
                                     : rng.uniform_real(1.0, 6.0);
    const int nf = static_cast<int>(rng.uniform_int(1, 3));
    for (int j = 0; j < nf; ++j) {
      task.flows.push_back(
          FlowGen{static_cast<std::size_t>(rng.uniform_int(0, kSide - 1)),
                  static_cast<std::size_t>(rng.uniform_int(0, kSide - 1)),
                  rng.uniform_real(0.2, 2.0)});
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

template <typename Scheduler>
struct ScenarioRun {
  std::unique_ptr<test::Dumbbell> d;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Scheduler> sched;
};

template <typename Scheduler>
ScenarioRun<Scheduler> run_scenario(const std::vector<TaskGen>& tasks) {
  ScenarioRun<Scheduler> r;
  r.d = std::make_unique<test::Dumbbell>(test::make_dumbbell(kSide));
  r.net = std::make_unique<net::Network>(*r.d->topology);
  for (const TaskGen& t : tasks) {
    std::vector<net::FlowSpec> flows;
    for (const FlowGen& f : t.flows) {
      flows.push_back(test::flow(r.d->left[f.left], r.d->right[f.right], f.size));
    }
    test::add_task(*r.net, t.arrival, t.arrival + t.slack, std::move(flows));
  }
  TapsConfig cfg;
  cfg.trim_interval = 4;  // exercise the trim cadence under the comparison
  r.sched = std::make_unique<Scheduler>(cfg);
  (void)test::run(*r.net, *r.sched);
  return r;
}

TAPS_PROP(TapsIncrementalProp, BitIdenticalToFullReplan, 150) {
  prop.for_all(gen_scenario, [](const std::vector<TaskGen>& tasks) {
    const auto taps = run_scenario<TapsScheduler>(tasks);
    const auto oracle = run_scenario<FullReplanOracle>(tasks);
    return test::compare_with_oracle(*taps.net, *taps.sched, *oracle.net, *oracle.sched);
  });
}

TEST(TapsIncrementalProp, ReuseActuallyHappensInAggregate) {
  // Guard against the reuse machinery silently degenerating into "restart
  // every session": across a batch of random scenarios (each containing
  // same-instant cascades) prefix reuse must fire, and must save real
  // planning work relative to the full-replan oracle.
  util::Rng rng(0xC0FFEE);
  std::size_t reused = 0;
  std::size_t planned_taps = 0;
  std::size_t planned_oracle = 0;
  for (int i = 0; i < 25; ++i) {
    const std::vector<TaskGen> tasks = gen_scenario(rng);
    const auto taps = run_scenario<TapsScheduler>(tasks);
    const auto oracle = run_scenario<FullReplanOracle>(tasks);
    reused += taps.sched->counters().cross_arrival_reuse_flows +
              taps.sched->counters().checkpoint_reuse_flows;
    planned_taps += taps.sched->counters().flows_planned;
    planned_oracle += oracle.sched->counters().flows_planned;
  }
  EXPECT_GT(reused, 0u);
  EXPECT_LT(planned_taps, planned_oracle);
}

}  // namespace
}  // namespace taps::core
