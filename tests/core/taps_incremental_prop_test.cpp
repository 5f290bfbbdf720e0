// Bit-identity pin for incremental replanning: TapsScheduler's journaled
// in-place sessions must produce schedules BITWISE identical to
// core::FullReplanOracle's from-scratch replans on random scenarios — same
// admission/rejection/preemption decisions, same committed paths and
// slices, same per-link occupancy, same flow outcomes.
//
// Two scenario families run under the comparison:
//   - Dumbbell (one bottleneck): same-instant arrival cascades (maximum
//     cross-arrival prefix reuse) mixed with spread arrivals (transmission
//     between commits breaks the reusable prefix), tight deadlines
//     (rejects, compacting replans and their reverts) and multi-flow tasks
//     (preemption validation), so every resume/restart path of the session
//     runs.
//   - k=4 fat-tree hotspots (the multi-path case, where Algorithm 2 chooses
//     among 2-4 candidate paths): most sources concentrate on two hotspot
//     hosts so their uplinks fill up, arrivals mostly cascade at one
//     instant, a tight tail of deadlines forces rejects, and round sizes
//     land exact-fit deadlines reasonably often.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/prop.hpp"
#include "common/taps_equiv.hpp"
#include "topo/fattree.hpp"

namespace taps::core {
namespace {

/// `src`/`dst` index the scenario topology's source/destination host lists.
struct FlowGen {
  std::size_t src = 0;
  std::size_t dst = 0;
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
    os << "(" << f.src << "->" << f.dst << " sz=" << f.size << ")";
  }
  return os << "]}";
}

/// A unit-capacity topology (sizes read as seconds) plus the host lists a
/// FlowGen's indexes select from.
struct Endpoints {
  std::unique_ptr<topo::Topology> topo;
  std::vector<topo::NodeId> srcs;
  std::vector<topo::NodeId> dsts;
};

constexpr int kSide = 6;

/// Left hosts send to right hosts across the bottleneck.
Endpoints dumbbell() {
  test::Dumbbell d = test::make_dumbbell(kSide);
  return {std::move(d.topology), std::move(d.left), std::move(d.right)};
}

// k=4 fat-tree: 16 hosts in 4 pods.
constexpr int kFatTreeHosts = 16;

Endpoints fat_tree() {
  auto ft = std::make_unique<topo::FatTree>(topo::FatTreeConfig{4, 1.0});
  const std::vector<topo::NodeId> hosts = ft->hosts();
  return {std::move(ft), hosts, hosts};
}

std::vector<TaskGen> gen_dumbbell_scenario(util::Rng& rng) {
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

std::vector<TaskGen> gen_hotspot_scenario(util::Rng& rng) {
  std::vector<TaskGen> tasks;
  const int n = static_cast<int>(rng.uniform_int(2, 16));
  // A couple of hotspot hosts most sources concentrate on, so host-uplink
  // occupancy actually accumulates.
  const auto hot_a = static_cast<std::size_t>(rng.uniform_int(0, kFatTreeHosts - 1));
  const auto hot_b = static_cast<std::size_t>(rng.uniform_int(0, kFatTreeHosts - 1));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    // Mostly same-instant cascades; occasionally advance time so flows
    // transmit between commits.
    if (i > 0 && rng.bernoulli(0.25)) t += rng.uniform_real(0.1, 1.5);
    TaskGen task;
    task.arrival = t;
    // Tight tail forces rejects; round sizes + slacks land exact-fit
    // deadlines reasonably often.
    task.slack = rng.bernoulli(0.4) ? rng.uniform_real(0.3, 1.2)
                                    : rng.uniform_real(1.2, 6.0);
    const int nf = static_cast<int>(rng.uniform_int(1, 3));
    for (int j = 0; j < nf; ++j) {
      FlowGen f;
      f.src = rng.bernoulli(0.6)
                  ? (rng.bernoulli(0.5) ? hot_a : hot_b)
                  : static_cast<std::size_t>(rng.uniform_int(0, kFatTreeHosts - 1));
      f.dst = static_cast<std::size_t>(rng.uniform_int(0, kFatTreeHosts - 1));
      if (f.dst == f.src) f.dst = (f.dst + 1) % kFatTreeHosts;
      f.size = rng.bernoulli(0.5) ? rng.uniform_real(0.2, 2.0)
                                  : static_cast<double>(rng.uniform_int(1, 4)) * 0.5;
      task.flows.push_back(f);
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

template <typename Scheduler>
struct ScenarioRun {
  std::unique_ptr<topo::Topology> topo;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Scheduler> sched;
};

template <typename Scheduler>
ScenarioRun<Scheduler> run_scenario(Endpoints (*make)(), const std::vector<TaskGen>& tasks) {
  Endpoints e = make();
  ScenarioRun<Scheduler> r;
  r.net = std::make_unique<net::Network>(*e.topo);
  for (const TaskGen& t : tasks) {
    std::vector<net::FlowSpec> flows;
    for (const FlowGen& f : t.flows) {
      flows.push_back(test::flow(e.srcs[f.src], e.dsts[f.dst], f.size));
    }
    test::add_task(*r.net, t.arrival, t.arrival + t.slack, std::move(flows));
  }
  r.topo = std::move(e.topo);
  TapsConfig cfg;
  cfg.trim_interval = 4;  // exercise the trim cadence under the comparison
  r.sched = std::make_unique<Scheduler>(cfg);
  (void)test::run(*r.net, *r.sched);
  return r;
}

std::optional<std::string> matches_oracle(Endpoints (*make)(),
                                          const std::vector<TaskGen>& tasks) {
  const auto taps = run_scenario<TapsScheduler>(make, tasks);
  const auto oracle = run_scenario<FullReplanOracle>(make, tasks);
  return test::compare_with_oracle(*taps.net, *taps.sched, *oracle.net, *oracle.sched);
}

TAPS_PROP(TapsIncrementalProp, BitIdenticalToFullReplan, 150) {
  prop.for_all(gen_dumbbell_scenario, [](const std::vector<TaskGen>& tasks) {
    return matches_oracle(dumbbell, tasks);
  });
}

TAPS_PROP(TapsIncrementalProp, FatTreeHotspotsBitIdenticalToFullReplan, 150) {
  prop.for_all(gen_hotspot_scenario, [](const std::vector<TaskGen>& tasks) {
    return matches_oracle(fat_tree, tasks);
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
    const std::vector<TaskGen> tasks = gen_dumbbell_scenario(rng);
    const auto taps = run_scenario<TapsScheduler>(dumbbell, tasks);
    const auto oracle = run_scenario<FullReplanOracle>(dumbbell, tasks);
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
