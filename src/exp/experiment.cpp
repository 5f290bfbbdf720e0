#include "exp/experiment.hpp"

#include <chrono>
#include <stdexcept>

#include "core/taps_scheduler.hpp"
#include "sched/baraat.hpp"
#include "sched/d2tcp.hpp"
#include "sched/d3.hpp"
#include "sched/fair_sharing.hpp"
#include "sched/pdq.hpp"
#include "sched/varys.hpp"
#include "sim/timeline.hpp"
#include "workload/task_generator.hpp"

namespace taps::exp {

namespace {

/// Fans the simulator's single observer slot out to two observers, for runs
/// that want both a caller-supplied observer and a timeline recorder.
class TeeObserver final : public sim::TransmitObserver {
 public:
  TeeObserver(sim::TransmitObserver* a, sim::TransmitObserver* b) : a_(a), b_(b) {}
  void on_transmit(const net::Flow& f, double t0, double t1, double bytes) override {
    a_->on_transmit(f, t0, t1, bytes);
    b_->on_transmit(f, t0, t1, bytes);
  }
  void on_task_arrival(const net::Task& t, double now) override {
    a_->on_task_arrival(t, now);
    b_->on_task_arrival(t, now);
  }
  void on_event(double now) override {
    a_->on_event(now);
    b_->on_event(now);
  }
  void on_flow_finished(const net::Flow& f, double now) override {
    a_->on_flow_finished(f, now);
    b_->on_flow_finished(f, now);
  }
  void on_run_complete(const net::Network& net, double end_time) override {
    a_->on_run_complete(net, end_time);
    b_->on_run_complete(net, end_time);
  }

 private:
  sim::TransmitObserver* a_;
  sim::TransmitObserver* b_;
};

}  // namespace

const char* to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kFairSharing:
      return "FairSharing";
    case SchedulerKind::kD3:
      return "D3";
    case SchedulerKind::kPdq:
      return "PDQ";
    case SchedulerKind::kBaraat:
      return "Baraat";
    case SchedulerKind::kVarys:
      return "Varys";
    case SchedulerKind::kTaps:
      return "TAPS";
    case SchedulerKind::kD2Tcp:
      return "D2TCP";
  }
  return "?";
}

const std::vector<SchedulerKind>& all_schedulers() {
  static const std::vector<SchedulerKind> kAll = {
      SchedulerKind::kFairSharing, SchedulerKind::kD3,    SchedulerKind::kPdq,
      SchedulerKind::kBaraat,      SchedulerKind::kVarys, SchedulerKind::kTaps,
  };
  return kAll;
}

const std::vector<SchedulerKind>& extended_schedulers() {
  static const std::vector<SchedulerKind> kExtended = [] {
    std::vector<SchedulerKind> v = all_schedulers();
    v.push_back(SchedulerKind::kD2Tcp);
    return v;
  }();
  return kExtended;
}

SchedulerKind parse_scheduler(const std::string& name) {
  for (const SchedulerKind k : extended_schedulers()) {
    std::string s = to_string(k);
    for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    std::string n = name;
    for (auto& c : n) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (s == n) return k;
  }
  throw std::invalid_argument("unknown scheduler: " + name);
}

std::unique_ptr<sim::Scheduler> make_scheduler(SchedulerKind kind, std::size_t max_paths) {
  switch (kind) {
    case SchedulerKind::kFairSharing:
      return std::make_unique<sched::FairSharing>();
    case SchedulerKind::kD3:
      return std::make_unique<sched::D3>();
    case SchedulerKind::kPdq:
      return std::make_unique<sched::Pdq>();
    case SchedulerKind::kBaraat:
      return std::make_unique<sched::Baraat>();
    case SchedulerKind::kVarys:
      return std::make_unique<sched::Varys>();
    case SchedulerKind::kTaps: {
      core::TapsConfig config;
      config.max_paths = max_paths;
      return std::make_unique<core::TapsScheduler>(config);
    }
    case SchedulerKind::kD2Tcp:
      return std::make_unique<sched::D2Tcp>();
  }
  throw std::logic_error("unreachable scheduler kind");
}

ExperimentRun run_experiment_full(const workload::Scenario& scenario, SchedulerKind kind,
                                  sim::TransmitObserver* observer,
                                  sim::TimelineRecorder* timeline, sim::SimEngine engine) {
  ExperimentRun run;
  run.topology = workload::make_topology(scenario);
  run.network = std::make_unique<net::Network>(*run.topology);

  util::Rng rng(scenario.seed);
  util::Rng workload_rng = rng.fork("workload");
  (void)workload::generate(*run.network, scenario.workload, workload_rng);

  run.scheduler = make_scheduler(kind, scenario.max_paths);

  sim::FluidSimulator simulator(*run.network, *run.scheduler, engine);
  TeeObserver tee(observer, timeline);
  if (observer != nullptr && timeline != nullptr) {
    simulator.set_observer(&tee);
  } else if (timeline != nullptr) {
    simulator.set_observer(timeline);
  } else if (observer != nullptr) {
    simulator.set_observer(observer);
  }
  if (timeline != nullptr) {
    // Decision hooks (admits, rejects, preemptions, grants) exist only for
    // schedulers built on sched::BaseScheduler; others record data-plane
    // events alone.
    if (auto* base = dynamic_cast<sched::BaseScheduler*>(run.scheduler.get())) {
      base->set_schedule_observer(timeline);
    }
  }

  // taps-lint: allow(wall-clock) -- measures host wall time for reporting
  const auto start = std::chrono::steady_clock::now();
  run.result.stats = simulator.run();
  // taps-lint: allow(wall-clock) -- wall_seconds never feeds sim decisions
  const auto stop = std::chrono::steady_clock::now();
  run.result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  run.result.metrics = metrics::collect(*run.network);
  {
    const sim::SimStats& s = run.result.stats;
    metrics::RunMetrics& m = run.result.metrics;
    m.sim_events = s.events;
    m.sim_flows_touched = s.effort.flows_touched;
    m.sim_lazy_skips = s.effort.lazy_skips;
    m.sim_heap_invalidations = s.effort.heap_invalidations;
    m.sim_rate_dirty = s.effort.rate_dirty;
  }
  if (const auto* taps = dynamic_cast<const core::TapsScheduler*>(run.scheduler.get())) {
    const core::TapsCounters& c = taps->counters();
    metrics::RunMetrics& m = run.result.metrics;
    m.replans = c.replans;
    m.flows_planned = c.flows_planned;
    m.prefix_reuse_flows = c.cross_arrival_reuse_flows + c.checkpoint_reuse_flows;
    const double denom =
        static_cast<double>(m.prefix_reuse_flows) + static_cast<double>(m.flows_planned);
    m.prefix_reuse_ratio =
        denom > 0.0 ? static_cast<double>(m.prefix_reuse_flows) / denom : 0.0;
    m.plan_commits = c.plan_commits;
    m.preemptions = c.tasks_preempted;
    m.slice_grants = c.slice_grants;
  }
  return run;
}

ExperimentResult run_experiment(const workload::Scenario& scenario, SchedulerKind kind) {
  return run_experiment_full(scenario, kind).result;
}

}  // namespace taps::exp
