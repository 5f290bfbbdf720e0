// Bit-identity pin for hierarchical admission: TapsScheduler's pod-local
// conservative precheck must never reject a task the global planner would
// admit — on random fat-tree scenarios, every committed decision, path,
// slice set, per-link occupancy and flow outcome must be BITWISE identical
// to core::FullReplanOracle, which has no precheck.
//
// The scenarios are biased toward what makes the precheck fire: hotspot
// sources (many tasks sharing a host uplink), same-instant cascades (the
// no-transmission gate holds), tight deadlines (provably-infeasible
// arrivals), cross-pod flows (pod-uplink budget tests), and exact-fit sizes
// (the budget-exhausted boundary, which must NOT fast-reject).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "common/fixtures.hpp"
#include "common/prop.hpp"
#include "common/taps_equiv.hpp"
#include "topo/fattree.hpp"

namespace taps::core {
namespace {

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

// k=4 fat-tree with unit capacity: 16 hosts in 4 pods, sizes read as seconds.
constexpr int kHosts = 16;

std::vector<TaskGen> gen_scenario(util::Rng& rng) {
  std::vector<TaskGen> tasks;
  const int n = static_cast<int>(rng.uniform_int(2, 16));
  // A couple of hotspot hosts most sources concentrate on, so host-uplink
  // mass actually accumulates and the precheck has something to prove.
  const auto hot_a = static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1));
  const auto hot_b = static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    // Mostly same-instant cascades (gate armed); occasionally advance time
    // so the gate closes and the fallback path runs under the comparison.
    if (i > 0 && rng.bernoulli(0.25)) t += rng.uniform_real(0.1, 1.5);
    TaskGen task;
    task.arrival = t;
    // Tight tail forces provable infeasibility; round sizes + slacks land
    // exact-exhaustion boundaries reasonably often.
    task.slack = rng.bernoulli(0.4) ? rng.uniform_real(0.3, 1.2)
                                    : rng.uniform_real(1.2, 6.0);
    const int nf = static_cast<int>(rng.uniform_int(1, 3));
    for (int j = 0; j < nf; ++j) {
      FlowGen f;
      f.src = rng.bernoulli(0.6) ? (rng.bernoulli(0.5) ? hot_a : hot_b)
                                 : static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1));
      f.dst = static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1));
      if (f.dst == f.src) f.dst = (f.dst + 1) % kHosts;
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
  std::unique_ptr<topo::FatTree> topo;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Scheduler> sched;
};

template <typename Scheduler>
ScenarioRun<Scheduler> run_scenario(const std::vector<TaskGen>& tasks) {
  ScenarioRun<Scheduler> r;
  r.topo = std::make_unique<topo::FatTree>(topo::FatTreeConfig{4, 1.0});
  r.net = std::make_unique<net::Network>(*r.topo);
  const std::vector<topo::NodeId>& hosts = r.topo->hosts();
  for (const TaskGen& t : tasks) {
    std::vector<net::FlowSpec> flows;
    for (const FlowGen& f : t.flows) {
      flows.push_back(test::flow(hosts[f.src], hosts[f.dst], f.size));
    }
    test::add_task(*r.net, t.arrival, t.arrival + t.slack, std::move(flows));
  }
  TapsConfig cfg;
  cfg.trim_interval = 4;  // exercise registry compaction under the comparison
  r.sched = std::make_unique<Scheduler>(cfg);
  (void)test::run(*r.net, *r.sched);
  return r;
}

TAPS_PROP(TapsHierarchyProp, PrecheckBitIdenticalIncremental, 150) {
  prop.for_all(gen_scenario, [](const std::vector<TaskGen>& tasks) {
    const auto taps = run_scenario<TapsScheduler>(tasks);
    const auto oracle = run_scenario<FullReplanOracle>(tasks);
    return test::compare_with_oracle(*taps.net, *taps.sched, *oracle.net, *oracle.sched);
  });
}

TEST(TapsHierarchyProp, FastRejectsActuallyHappenInAggregate) {
  // Guard against the precheck silently degenerating into "never fires":
  // across a batch of hotspot-biased random scenarios it must reject a
  // nonzero number of tasks locally, and must save real planning work.
  util::Rng rng(0xBADCAFE);
  std::size_t fast = 0;
  std::size_t planned_taps = 0;
  std::size_t planned_oracle = 0;
  for (int i = 0; i < 25; ++i) {
    const std::vector<TaskGen> tasks = gen_scenario(rng);
    const auto taps = run_scenario<TapsScheduler>(tasks);
    const auto oracle = run_scenario<FullReplanOracle>(tasks);
    fast += taps.sched->counters().pod_fast_rejects;
    planned_taps += taps.sched->counters().flows_planned;
    planned_oracle += oracle.sched->counters().flows_planned;
  }
  EXPECT_GT(fast, 0u);
  EXPECT_LT(planned_taps, planned_oracle);
}

}  // namespace
}  // namespace taps::core
