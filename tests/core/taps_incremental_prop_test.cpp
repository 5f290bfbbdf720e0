// Bit-identity pin for incremental replanning: TapsScheduler's journaled
// in-place sessions must produce schedules BITWISE identical to
// core::FullReplanOracle's from-scratch replans on random scenarios — same
// admission/rejection/preemption decisions, same committed paths and
// slices, same per-link occupancy, same flow outcomes.
//
// Three scenario families run under the comparison, each under both reject
// rule readings (PreemptPolicy):
//   - Dumbbell (one bottleneck): same-instant arrival cascades (maximum
//     cross-arrival prefix reuse) mixed with spread arrivals (transmission
//     between commits breaks the reusable prefix), tight deadlines
//     (rejects, compacting replans and their reverts) and multi-flow tasks
//     (preemption validation).
//   - k=4 fat-tree hotspots (the multi-path case, where Algorithm 2 chooses
//     among 2-4 candidate paths): most sources concentrate on two hotspot
//     hosts so their uplinks fill up, arrivals mostly cascade at one
//     instant, a tight tail of deadlines forces rejects, and round sizes
//     land exact-fit deadlines reasonably often.
//   - The same hotspots re-timed into clusters of same-instant arrivals,
//     with a trim at every arrival: most trims come when time has not
//     advanced since the last one.
// A fifth of the tasks get a second wave (Network::extend_task): under
// kSchedulable a wave's ratio counts its task's adopted first-wave flows,
// and rejecting a wave rejects flows already in the committed order.
// A share of each family's scenarios puts deadlines on a 0.5 s grid. Tied
// deadlines let SJF sort a newcomer between an incumbent task's flows, so
// under kSchedulable a preemption victim can own an adopted flow: the
// session restart path runs (pinned by PreemptionAndRestartHappenInAggregate).
#include <gtest/gtest.h>

#include <cmath>
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
  /// Optional second wave (Network::extend_task), arriving `wave_delay`
  /// after the first: its reject-rule ratios count the task's adopted
  /// first-wave flows, and rejecting it rejects flows already committed.
  double wave_delay = 0.0;
  std::vector<FlowGen> wave;
};

std::ostream& operator<<(std::ostream& os, const TaskGen& t) {
  os << "{t=" << t.arrival << " slack=" << t.slack << " flows=[";
  for (const FlowGen& f : t.flows) {
    os << "(" << f.src << "->" << f.dst << " sz=" << f.size << ")";
  }
  os << "]";
  if (!t.wave.empty()) {
    os << " wave@+" << t.wave_delay << "=[";
    for (const FlowGen& f : t.wave) {
      os << "(" << f.src << "->" << f.dst << " sz=" << f.size << ")";
    }
    os << "]";
  }
  return os << "}";
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

// Share of scenarios whose deadlines sit on the grid below.
constexpr double kGridShare = 0.3;
// Share of tasks that get a second wave.
constexpr double kWaveShare = 0.2;
constexpr double kDeadlineGrid = 0.5;

/// Round every deadline up to the grid, so tasks tie on deadlines.
void snap_deadlines(std::vector<TaskGen>& tasks) {
  for (TaskGen& t : tasks) {
    t.slack = std::ceil((t.arrival + t.slack) / kDeadlineGrid) * kDeadlineGrid - t.arrival;
  }
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
    if (rng.bernoulli(kWaveShare)) {
      task.wave_delay = rng.uniform_real(0.05, 0.6) * task.slack;
      task.wave.push_back(FlowGen{static_cast<std::size_t>(rng.uniform_int(0, kSide - 1)),
                                  static_cast<std::size_t>(rng.uniform_int(0, kSide - 1)),
                                  rng.uniform_real(0.2, 1.0)});
    }
    tasks.push_back(std::move(task));
  }
  if (rng.bernoulli(kGridShare)) snap_deadlines(tasks);
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
    if (rng.bernoulli(kWaveShare)) {
      FlowGen f = task.flows.front();
      f.dst = (f.dst + 1 + static_cast<std::size_t>(rng.uniform_int(0, kFatTreeHosts - 3))) %
              kFatTreeHosts;
      if (f.dst == f.src) f.dst = (f.dst + 1) % kFatTreeHosts;
      task.wave_delay = rng.uniform_real(0.05, 0.6) * task.slack;
      task.wave.push_back(f);
    }
    tasks.push_back(std::move(task));
  }
  if (rng.bernoulli(kGridShare)) snap_deadlines(tasks);
  return tasks;
}

template <typename Scheduler>
struct ScenarioRun {
  std::unique_ptr<topo::Topology> topo;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Scheduler> sched;
};

template <typename Scheduler>
ScenarioRun<Scheduler> run_scenario(Endpoints (*make)(), const std::vector<TaskGen>& tasks,
                                    PreemptPolicy policy = PreemptPolicy::kProgress,
                                    std::size_t trim_interval = 4) {
  Endpoints e = make();
  ScenarioRun<Scheduler> r;
  r.net = std::make_unique<net::Network>(*e.topo);
  for (const TaskGen& t : tasks) {
    std::vector<net::FlowSpec> flows;
    for (const FlowGen& f : t.flows) {
      flows.push_back(test::flow(e.srcs[f.src], e.dsts[f.dst], f.size));
    }
    const net::TaskId id = test::add_task(*r.net, t.arrival, t.arrival + t.slack, std::move(flows));
    if (!t.wave.empty()) {
      std::vector<net::FlowSpec> wave;
      for (const FlowGen& f : t.wave) {
        wave.push_back(test::flow(e.srcs[f.src], e.dsts[f.dst], f.size));
      }
      r.net->extend_task(id, t.arrival + t.wave_delay, wave);
    }
  }
  r.topo = std::move(e.topo);
  TapsConfig cfg;
  cfg.trim_interval = trim_interval;  // exercise the trim cadence under the comparison
  cfg.preempt_policy = policy;
  r.sched = std::make_unique<Scheduler>(cfg);
  (void)test::run(*r.net, *r.sched);
  return r;
}

/// Both reject-rule readings: kSchedulable is the one that preempts
/// newcomers' rivals, and so the one that reaches session restarts. The
/// trim cadence is the oracle's too: equal occupancy_trims counts.
std::optional<std::string> matches_oracle(Endpoints (*make)(), const std::vector<TaskGen>& tasks,
                                          std::size_t trim_interval = 4) {
  for (const PreemptPolicy policy : {PreemptPolicy::kProgress, PreemptPolicy::kSchedulable}) {
    const auto taps = run_scenario<TapsScheduler>(make, tasks, policy, trim_interval);
    const auto oracle = run_scenario<FullReplanOracle>(make, tasks, policy, trim_interval);
    std::optional<std::string> diff =
        test::compare_with_oracle(*taps.net, *taps.sched, *oracle.net, *oracle.sched);
    if (!diff && taps.sched->counters().occupancy_trims !=
                     oracle.sched->counters().occupancy_trims) {
      diff = "occupancy_trims " + std::to_string(taps.sched->counters().occupancy_trims) +
             " vs oracle " + std::to_string(oracle.sched->counters().occupancy_trims);
    }
    if (diff) {
      return std::string(policy == PreemptPolicy::kProgress ? "kProgress: " : "kSchedulable: ") +
             *diff;
    }
  }
  return std::nullopt;
}

/// Hotspot scenarios re-timed so arrivals come in clusters of 2-5 at one
/// instant, the instants 0.1-1.5 s apart. Run with a trim at every arrival,
/// most trims fall at an instant an earlier one already trimmed at, and the
/// scheduler skips their walk where the oracle makes it.
std::vector<TaskGen> gen_clustered_scenario(util::Rng& rng) {
  std::vector<TaskGen> tasks = gen_hotspot_scenario(rng);
  double t = 0.0;
  auto left = rng.uniform_int(2, 5);
  for (TaskGen& task : tasks) {
    if (left-- == 0) {
      t += rng.uniform_real(0.1, 1.5);
      left = rng.uniform_int(1, 4);
    }
    task.arrival = t;
  }
  return tasks;
}

TAPS_PROP(TapsIncrementalProp, BitIdenticalToFullReplan, 300) {
  prop.for_all(gen_dumbbell_scenario, [](const std::vector<TaskGen>& tasks) {
    return matches_oracle(dumbbell, tasks);
  });
}

TAPS_PROP(TapsIncrementalProp, FatTreeHotspotsBitIdenticalToFullReplan, 300) {
  prop.for_all(gen_hotspot_scenario, [](const std::vector<TaskGen>& tasks) {
    return matches_oracle(fat_tree, tasks);
  });
}

TAPS_PROP(TapsIncrementalProp, SameInstantTrimsBitIdenticalToFullReplan, 300) {
  prop.for_all(gen_clustered_scenario, [](const std::vector<TaskGen>& tasks) {
    return matches_oracle(fat_tree, tasks, /*trim_interval=*/1);
  });
}

TEST(TapsIncrementalProp, ForcedWaveHotspotsMatchOracle) {
  // A fixed batch of hotspot scenarios in which every task gets a second
  // wave: its first flow again, 0.3 x slack after the first. Re-planning
  // the same flow a wave later lands exact fits — a demand filling a gap up
  // to a rounding residue — and this batch reaches the ones where Algorithm
  // 3 and its pruning bounds used to disagree (scenarios 911 and 1853).
  util::Rng rng(0xABCDEF);
  for (int i = 0; i < 2000; ++i) {
    std::vector<TaskGen> tasks = gen_hotspot_scenario(rng);
    for (TaskGen& t : tasks) {
      if (!t.wave.empty()) continue;
      t.wave_delay = 0.3 * t.slack;
      t.wave.push_back(t.flows.front());
    }
    ASSERT_EQ(matches_oracle(fat_tree, tasks), std::nullopt) << "scenario " << i;
  }
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

TEST(TapsIncrementalProp, PreemptionAndRestartHappenInAggregate) {
  // Guard against the properties above silently never reaching preemption
  // validation or a session restart: on grid deadlines under kSchedulable,
  // a fixed batch of scenarios of each family must preempt, and some
  // preemption victim must own an adopted flow. Each scenario still has to
  // match the oracle.
  util::Rng rng(0x5EED);
  std::size_t preempted = 0;
  std::size_t restarts = 0;
  for (int i = 0; i < 300; ++i) {
    for (const bool hotspot : {false, true}) {
      std::vector<TaskGen> tasks = hotspot ? gen_hotspot_scenario(rng) : gen_dumbbell_scenario(rng);
      snap_deadlines(tasks);
      Endpoints (*make)() = hotspot ? fat_tree : dumbbell;
      const auto taps = run_scenario<TapsScheduler>(make, tasks, PreemptPolicy::kSchedulable);
      const auto oracle =
          run_scenario<FullReplanOracle>(make, tasks, PreemptPolicy::kSchedulable);
      ASSERT_EQ(test::compare_with_oracle(*taps.net, *taps.sched, *oracle.net, *oracle.sched),
                std::nullopt)
          << "scenario " << i << (hotspot ? " (hotspot)" : " (dumbbell)");
      preempted += taps.sched->counters().tasks_preempted;
      restarts += taps.sched->counters().session_restarts;
    }
  }
  EXPECT_GT(preempted, 0u);
  EXPECT_GT(restarts, 0u);
}

}  // namespace
}  // namespace taps::core
