// Engine-equivalence pins: FluidSimulator's indexed loop must replay
// taps_oracle's ReferenceSimulator bit-for-bit — same flow outcomes (state,
// remaining, bytes_sent, completion_time in full precision), same SimStats
// outcome fields (events, completions, misses, end_time), and the same
// timeline event stream when a recorder is attached. Only the SimEffort work
// counters may differ (that is the point of the indexed loop).
//
// The property runs every scheduler — including TAPS's full-replan oracle,
// whose plain rate rescan backs TapsScheduler's event-driven rates — over
// randomized multi-wave workloads from the shrinking kit, so a divergence
// reports a seed and a minimal scheduler/workload pair. TAPS's outcomes
// must also match the oracle's bit for bit, which pins the event-driven
// rates to the rescan.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/prop.hpp"
#include "core/full_replan_oracle.hpp"
#include "exp/experiment.hpp"
#include "sim/reference_simulator.hpp"
#include "sim/timeline.hpp"
#include "workload/task_generator.hpp"

namespace taps::sim {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;

/// One scheduler configuration under test: a kind, or (oracle = true) the
/// TAPS full-replan oracle.
struct SchedConfig {
  exp::SchedulerKind kind = exp::SchedulerKind::kFairSharing;
  bool oracle = false;
};

std::unique_ptr<Scheduler> make(const SchedConfig& sc) {
  if (sc.oracle) return std::make_unique<core::FullReplanOracle>();
  return exp::make_scheduler(sc.kind, 16);
}

const std::vector<SchedConfig>& all_configs() {
  static const std::vector<SchedConfig> kConfigs = [] {
    std::vector<SchedConfig> v;
    for (const exp::SchedulerKind k : exp::extended_schedulers()) {
      v.push_back(SchedConfig{k, false});
    }
    v.push_back(SchedConfig{exp::SchedulerKind::kTaps, true});
    return v;
  }();
  return kConfigs;
}

struct RunOutput {
  std::string fingerprint;  // hexfloat flow outcomes + SimStats outcome fields
  Timeline timeline;
};

/// Which event loop runs a case.
enum class Loop { kIndexed, kReference };

/// Run `net` under `scheduler` on `loop`, with `observer` attached (may be
/// null).
SimStats run_loop(Loop loop, net::Network& net, Scheduler& scheduler,
                  TransmitObserver* observer = nullptr) {
  if (loop == Loop::kReference) {
    ReferenceSimulator simulator(net, scheduler);
    simulator.set_observer(observer);
    return simulator.run();
  }
  FluidSimulator simulator(net, scheduler);
  simulator.set_observer(observer);
  return simulator.run();
}

/// Full-precision dump of everything both loops must agree on. SimEffort
/// is deliberately absent — it is loop-dependent by design.
std::string outcome_fingerprint(const net::Network& net, const SimStats& stats) {
  std::ostringstream os;
  os << std::hexfloat;
  os << stats.end_time << ' ' << stats.events << ' ' << stats.completions << ' '
     << stats.misses << '\n';
  for (const net::Flow& f : net.flows()) {
    os << f.id() << ' ' << net::to_string(f.state) << ' ' << f.remaining << ' '
       << f.bytes_sent << ' ' << f.completion_time << '\n';
  }
  return os.str();
}

RunOutput run_once(const workload::WorkloadConfig& wc, std::uint64_t workload_seed,
                   const SchedConfig& sc, Loop loop) {
  const auto topology = workload::make_topology(workload::Scenario::single_rooted(false));
  net::Network net(*topology);
  util::Rng rng(workload_seed);
  (void)workload::generate(net, wc, rng);

  const std::unique_ptr<Scheduler> scheduler = make(sc);
  TimelineRecorder rec(TimelineConfig{.record_transmissions = true});
  if (auto* base = dynamic_cast<sched::BaseScheduler*>(scheduler.get())) {
    base->set_schedule_observer(&rec);
  }
  const SimStats stats = run_loop(loop, net, *scheduler, &rec);

  RunOutput out;
  out.fingerprint = outcome_fingerprint(net, stats);
  out.timeline = rec.timeline();
  return out;
}

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
  c.task_count = static_cast<int>(rng.uniform_int(3, 14));
  c.flows_per_task_mean = rng.uniform_real(1.0, 10.0);
  c.arrival_rate = rng.uniform_real(50.0, 600.0);
  c.mean_deadline = rng.uniform_real(0.010, 0.080);
  c.waves_per_task = static_cast<int>(rng.uniform_int(1, 3));
  c.size_distribution = static_cast<workload::SizeDistribution>(rng.uniform_int(0, 2));
  c.workload_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000));
  return c;
}

TAPS_PROP(SimEngineEquivProp, IndexedMatchesReferenceBitwise, 8) {
  prop.for_all(generate_case, [](const WorkloadCase& c) -> std::optional<std::string> {
    workload::WorkloadConfig wc;
    wc.task_count = c.task_count;
    wc.flows_per_task_mean = c.flows_per_task_mean;
    wc.arrival_rate = c.arrival_rate;
    wc.mean_deadline = c.mean_deadline;
    wc.waves_per_task = c.waves_per_task;
    wc.size_distribution = c.size_distribution;
    std::string taps_fp;    // event-driven rates over journaled sessions
    std::string oracle_fp;  // plain rescan over from-scratch replans
    for (const SchedConfig& sc : all_configs()) {
      const RunOutput ref = run_once(wc, c.workload_seed, sc, Loop::kReference);
      const RunOutput idx = run_once(wc, c.workload_seed, sc, Loop::kIndexed);
      const std::string label =
          std::string(exp::to_string(sc.kind)) + (sc.oracle ? "/full-replan-oracle" : "");
      if (ref.fingerprint != idx.fingerprint) {
        return label + ": outcome fingerprints diverge\n--- reference:\n" + ref.fingerprint +
               "--- indexed:\n" + idx.fingerprint;
      }
      if (!(ref.timeline == idx.timeline)) {
        return label + ": timelines diverge (" + std::to_string(ref.timeline.events.size()) +
               " vs " + std::to_string(idx.timeline.events.size()) + " events)";
      }
      if (sc.kind == exp::SchedulerKind::kTaps) (sc.oracle ? oracle_fp : taps_fp) = idx.fingerprint;
    }
    if (taps_fp != oracle_fp) {
      return "TAPS diverges from its full-replan oracle\n--- TAPS:\n" + taps_fp +
             "--- oracle:\n" + oracle_fp;
    }
    return std::nullopt;
  });
}

/// Deterministic contended-dumbbell case crossing every decision path
/// (admit, reject, preempt) under TAPS, with the recorder attached to both
/// planes — the same workload as the TimelineIdentity suite, now compared
/// across loops.
TEST(SimEngineEquiv, TimelineIdenticalOnContendedDumbbell) {
  auto run_engine = [](Loop loop) {
    auto d = make_dumbbell(4);
    net::Network net(*d.topology);
    add_task(net, 0.0, 8.0,
             {flow(d.left[0], d.right[0], 4.0), flow(d.left[1], d.right[1], 2.0)});
    add_task(net, 1.0, 3.0, {flow(d.left[2], d.right[2], 1.5)});
    add_task(net, 1.0, 9.0, {flow(d.left[3], d.right[3], 3.0)});
    add_task(net, 2.0, 4.0, {flow(d.left[0], d.right[1], 1.0)});
    add_task(net, 2.5, 5.0, {flow(d.left[1], d.right[0], 2.0)});
    add_task(net, 3.0, 6.5, {flow(d.left[2], d.right[3], 2.5)});
    core::TapsConfig cfg;
    cfg.preempt_policy = core::PreemptPolicy::kSchedulable;
    cfg.trim_interval = 2;
    core::TapsScheduler sched(cfg);
    TimelineRecorder rec(TimelineConfig{.record_transmissions = true});
    sched.set_schedule_observer(&rec);
    const SimStats stats = run_loop(loop, net, sched, &rec);
    return std::make_pair(outcome_fingerprint(net, stats), rec.timeline());
  };
  const auto [ref_fp, ref_tl] = run_engine(Loop::kReference);
  const auto [idx_fp, idx_tl] = run_engine(Loop::kIndexed);
  EXPECT_EQ(ref_fp, idx_fp);
  EXPECT_TRUE(ref_tl == idx_tl) << "timeline diverged";
  EXPECT_GT(ref_tl.events.size(), 6u);
}

/// The effort counters must actually tell the two loops apart on a
/// workload with paused flows (TAPS pauses everything outside its slices):
/// equivalence above would hold vacuously if the indexed loop silently
/// fell back to rescanning.
TEST(SimEngineEquiv, IndexedEngineActuallySkipsWork) {
  workload::WorkloadConfig wc;
  wc.task_count = 20;
  wc.flows_per_task_mean = 10.0;
  auto run_engine = [&wc](Loop loop) {
    const auto topology =
        workload::make_topology(workload::Scenario::single_rooted(false));
    net::Network net(*topology);
    util::Rng rng(42);
    (void)workload::generate(net, wc, rng);
    const auto scheduler = exp::make_scheduler(exp::SchedulerKind::kTaps, 16);
    return run_loop(loop, net, *scheduler);
  };
  const SimStats ref = run_engine(Loop::kReference);
  const SimStats idx = run_engine(Loop::kIndexed);
  EXPECT_EQ(ref.events, idx.events);
  EXPECT_EQ(ref.completions, idx.completions);
  EXPECT_EQ(ref.misses, idx.misses);
  EXPECT_EQ(ref.end_time, idx.end_time);
  EXPECT_LT(idx.effort.flows_touched, ref.effort.flows_touched);
  EXPECT_GT(idx.effort.lazy_skips, 0u);
  EXPECT_EQ(ref.effort.lazy_skips, 0u);      // the rescan never skips
  EXPECT_EQ(ref.effort.rate_dirty, 0u);      // the reference never drains
  EXPECT_GT(idx.effort.rate_dirty, 0u);
}

}  // namespace
}  // namespace taps::sim
