// baseline_sim: FluidSimulator over the paper's fat-tree stream, once per
// flow-level baseline, sequentially. The sim engine and the baselines' rate
// assignment (progressive filling) do all the work and core does none, so
// a core change should leave this workload unchanged while a sched or sim
// change must show here.
#include <algorithm>
#include <memory>
#include <string>

#include "exp/experiment.hpp"
#include "gen.hpp"
#include "layers.hpp"
#include "metrics/collector.hpp"
#include "sched/scheduler.hpp"
#include "trace.hpp"

namespace taps_bench {

namespace {

namespace exp = taps::exp;

constexpr std::size_t kTasks = 40;
/// The scaled fat-tree preset's coflow width.
constexpr double kFlowsPerTask = 96.0;
constexpr double kTailQ = 0.99;
constexpr exp::SchedulerKind kBaselines[] = {
    exp::SchedulerKind::kFairSharing, exp::SchedulerKind::kD3,
    exp::SchedulerKind::kPdq,         exp::SchedulerKind::kBaraat,
    exp::SchedulerKind::kVarys,       exp::SchedulerKind::kD2Tcp,
};

/// Decorator over a library scheduler: forwards every call, records the
/// wall-clock length of each simulator event (one assign_rates per event
/// loop iteration), and with a tracer opens a span around each call.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::Scheduler> inner, Tracer* tracer,
                 std::vector<double>& event_us)
      : inner_(std::move(inner)), tracer_(tracer), event_us_(&event_us) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void bind(net::Network& network) override {
    inner_->bind(network);
    last_event_ = Clock::now();
  }
  void on_task_arrival(net::TaskId id, double now) override {
    const ScopedSpan span(tracer_, "sched.on_task_arrival", static_cast<std::uint64_t>(id));
    inner_->on_task_arrival(id, now);
  }
  void on_flow_finished(net::FlowId id, double now) override {
    const ScopedSpan span(tracer_, "sched.on_flow_finished", static_cast<std::uint64_t>(id));
    inner_->on_flow_finished(id, now);
  }
  double assign_rates(double now) override {
    double next = 0.0;
    {
      const ScopedSpan span(tracer_, "sched.assign_rates", event_us_->size());
      next = inner_->assign_rates(now);
    }
    const auto t = Clock::now();
    event_us_->push_back(micros(last_event_, t));
    last_event_ = t;
    return next;
  }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  Tracer* tracer_;
  std::vector<double>* event_us_;
  Clock::time_point last_event_;
};

void register_stream(net::Network& network, const std::vector<svc::TaskRequest>& stream) {
  std::vector<net::FlowSpec> specs;
  for (const svc::TaskRequest& req : stream) {
    specs.clear();
    for (const svc::FlowRequest& f : req.flows) {
      net::FlowSpec s;
      s.src = f.src;
      s.dst = f.dst;
      s.size = f.size;
      s.arrival = req.arrival;
      s.deadline = req.deadline;
      specs.push_back(s);
    }
    (void)network.add_task(req.arrival, req.deadline, specs);
  }
}

struct SimRun {
  double wall_s = 0.0;
  std::vector<double> event_us;  // wall-clock length of each simulator event
  sim::SimStats stats;
  double task_completion_ratio = 0.0;
  std::size_t flows = 0;
  std::size_t unfinished = 0;  // flows not in a terminal state
  std::uint64_t fingerprint = 0;
};

SimRun simulate(const topo::FatTree& ft, const std::vector<svc::TaskRequest>& stream,
                exp::SchedulerKind kind, Tracer* tracer) {
  net::Network network(ft);
  register_stream(network, stream);
  SimRun run;
  TimedScheduler scheduler(exp::make_scheduler(kind, taps::sched::kDefaultMaxPaths), tracer,
                           run.event_us);
  sim::FluidSimulator simulator(network, scheduler);
  const auto t0 = Clock::now();
  {
    const ScopedSpan span(tracer, "sim.run", static_cast<std::uint64_t>(kind));
    run.stats = simulator.run();
  }
  run.wall_s = seconds_since(t0);
  run.task_completion_ratio = taps::metrics::collect(network).task_completion_ratio;
  run.flows = network.flows().size();
  Fingerprint fp;
  for (const net::Flow& f : network.flows()) {
    run.unfinished += f.finished() ? 0 : 1;
    fp.add_u64(static_cast<std::uint64_t>(f.state));
    fp.add_double(f.completion_time);
    fp.add_double(f.bytes_sent);
  }
  run.fingerprint = fp.value();
  return run;
}

/// Topology build, then Network registration of `stream` plus a
/// scheduler's bind (cycling over the baselines).
SetupSampler setup_sampler(std::vector<svc::TaskRequest> stream) {
  return SetupSampler([stream = std::move(stream), next = std::size_t{0}]() mutable {
    const auto t0 = Clock::now();
    const topo::FatTree ft(topology_config());
    const auto t1 = Clock::now();
    net::Network network(ft);
    register_stream(network, stream);
    const auto scheduler = exp::make_scheduler(kBaselines[next++ % std::size(kBaselines)],
                                               taps::sched::kDefaultMaxPaths);
    scheduler->bind(network);
    return SetupSampler::Sample{seconds_between(t0, t1), seconds_since(t1)};
  });
}

/// Set-up samples per break between simulation runs.
constexpr std::size_t kSetupSamplesPerBreak = 4;

/// Whole episodes (every baseline over one stream), at least one, while
/// the next is expected to fit in `budget_s`. Untraced, every simulation
/// runs twice, a whole episode apart, and keeps the faster of the two runs
/// event by event: the runs are deterministic, so they differ only by
/// machine noise. With a tracer, each untraced run is instead followed
/// right away by the same run traced, so both see the same machine state.
struct Episodes {
  std::vector<SimRun> runs;    // untraced; episode-major, baseline order
  std::vector<SimRun> traced;  // the same runs traced (tracer given)
  std::size_t count = 0;
};

double wall_s(const std::vector<SimRun>& runs) {
  double sum = 0.0;
  for (const SimRun& r : runs) sum += r.wall_s;
  return sum;
}

Episodes run_episodes(const topo::FatTree& ft, std::uint64_t seed, std::size_t tasks,
                      double budget_s, Tracer* tracer, SetupSampler& setup, Result& result) {
  Episodes out;
  double last_s = 0.0;
  const auto start = Clock::now();
  while (out.count == 0 || seconds_since(start) + last_s <= budget_s) {
    const auto t0 = Clock::now();
    const std::vector<svc::TaskRequest> stream =
        coflow_stream(ft, tasks, kFlowsPerTask, episode_seed(seed, out.count));
    const std::size_t first = out.runs.size();
    for (const exp::SchedulerKind kind : kBaselines) {
      out.runs.push_back(simulate(ft, stream, kind, nullptr));
      if (tracer != nullptr) out.traced.push_back(simulate(ft, stream, kind, tracer));
      for (std::size_t i = 0; i < kSetupSamplesPerBreak; ++i) setup.sample();
    }
    for (std::size_t k = 0; tracer == nullptr && k < std::size(kBaselines); ++k) {
      const SimRun again = simulate(ft, stream, kBaselines[k], nullptr);
      SimRun& best = out.runs[first + k];
      result.check(again.fingerprint == best.fingerprint &&
                       again.event_us.size() == best.event_us.size(),
                   "a repeated simulation ended differently");
      best.wall_s = std::min(best.wall_s, again.wall_s);
      for (std::size_t e = 0; e < std::min(best.event_us.size(), again.event_us.size()); ++e) {
        best.event_us[e] = std::min(best.event_us[e], again.event_us[e]);
      }
      for (std::size_t i = 0; i < kSetupSamplesPerBreak; ++i) setup.sample();
    }
    ++out.count;
    last_s = seconds_since(t0);
  }
  return out;
}

void check_runs(const std::vector<SimRun>& runs, Result& out) {
  std::size_t unfinished = 0;
  for (const SimRun& r : runs) {
    out.attempted += r.flows;
    unfinished += r.unfinished;
  }
  out.failed += unfinished;
  out.check(unfinished == 0,
            std::to_string(unfinished) + " simulated flows ended in a non-terminal state");
}

}  // namespace

void run_baseline_sim(const Options& opts, Result& out) {
  const topo::FatTree ft(topology_config());
  const std::size_t tasks = opts.smoke ? kTasks / 20 : kTasks;
  SetupSampler setup =
      setup_sampler(coflow_stream(ft, tasks, kFlowsPerTask, episode_seed(opts.seed, 0)));

  if (!opts.trace) {
    const Episodes eps = run_episodes(ft, opts.seed, tasks, opts.seconds, nullptr, setup, out);
    check_runs(eps.runs, out);
    // Episode 0 always runs, so its fingerprint and completion ratio are a
    // pure function of the seed.
    Fingerprint fp;
    double completion = 0.0;
    std::size_t flows = 0;
    std::vector<double> lat;
    for (std::size_t i = 0; i < eps.runs.size(); ++i) {
      if (i < std::size(kBaselines)) {
        fp.add_u64(eps.runs[i].fingerprint);
        completion += eps.runs[i].task_completion_ratio;
      }
      flows += eps.runs[i].flows;
      lat.insert(lat.end(), eps.runs[i].event_us.begin(), eps.runs[i].event_us.end());
    }
    out.info("decisions_fingerprint", fp.hex() + " (episode 0, " +
                                          std::to_string(std::size(kBaselines)) + " baselines)");
    out.info("episodes", std::to_string(eps.count) + " x 2 runs of " + std::to_string(tasks) +
                             " tasks under each baseline");
    out.info("latency_quantiles_us", quantile_summary(lat) + " per simulator event");
    out.info("latency_tail", "p99");
    out.metric("setup_s", setup.median_total_s(), "s");
    out.metric("latency_p50_us", quantile(lat, 0.5), "us");
    out.metric("latency_tail_us", quantile(lat, kTailQ), "us");
    out.metric("throughput_per_s", static_cast<double>(flows) / wall_s(eps.runs), "1/s");
    out.metric("deadline_met_ratio", completion / static_cast<double>(std::size(kBaselines)),
               "ratio");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  Tracer tracer;
  const Episodes eps =
      run_episodes(ft, opts.seed, tasks, opts.seconds / 2.0, &tracer, setup, out);
  check_runs(eps.traced, out);
  for (std::size_t i = 0; i < eps.runs.size(); ++i) {
    out.check(eps.runs[i].fingerprint == eps.traced[i].fingerprint,
              "a traced simulation ended differently");
  }
  Layers layers;
  const SetupSampler::Sample parts = setup.median_parts();
  layers.set("topo.build_us", parts.topo_s * 1e6);
  layers.set("net.register_us", parts.rest_s * 1e6);

  std::vector<double> baseline_s(std::size(kBaselines), 0.0);
  for (std::size_t i = 0; i < eps.runs.size(); ++i) {
    baseline_s[i % baseline_s.size()] += eps.runs[i].wall_s;
  }
  for (std::size_t k = 0; k < baseline_s.size(); ++k) {
    layers.set(std::string("sched.") + exp::to_string(kBaselines[k]) + ".wall_s",
               baseline_s[k]);
  }
  sim::SimStats total;
  for (const SimRun& r : eps.traced) {
    total.events += r.stats.events;
    total.effort.flows_touched += r.stats.effort.flows_touched;
    total.effort.lazy_skips += r.stats.effort.lazy_skips;
    total.effort.heap_invalidations += r.stats.effort.heap_invalidations;
    total.effort.rate_dirty += r.stats.effort.rate_dirty;
  }
  const Tracer::Layer run = tracer.layer("sim.run");
  const Tracer::Layer arrival = tracer.layer("sched.on_task_arrival");
  const Tracer::Layer rates = tracer.layer("sched.assign_rates");
  const Tracer::Layer finished = tracer.layer("sched.on_flow_finished");
  layers.set("sched.on_task_arrival_us", arrival.mean_self_us());
  layers.set("sched.assign_rates_us", rates.mean_self_us());
  layers.set("sched.on_flow_finished_us", finished.mean_self_us());
  layers.set("sched.assign_rates_calls", static_cast<double>(rates.count));
  layers.set("sim.self_us", run.self_us);
  layers.set("sim.events", static_cast<double>(total.events));
  layers.set("sim.us_per_event", run.self_us / static_cast<double>(total.events));
  layers.set("sim.flows_touched", static_cast<double>(total.effort.flows_touched));
  layers.set("sim.lazy_skips", static_cast<double>(total.effort.lazy_skips));
  layers.set("sim.heap_invalidations", static_cast<double>(total.effort.heap_invalidations));
  layers.set("sim.rate_dirty", static_cast<double>(total.effort.rate_dirty));
  layers.set("trace.decisions", static_cast<double>(tasks * eps.traced.size()));
  const double base_us = wall_s(eps.runs) * 1e6;
  layers.set("trace.overhead_ratio", wall_s(eps.traced) / wall_s(eps.runs) - 1.0);
  layers.set("trace.self_sum_ratio",
             (run.self_us + arrival.self_us + rates.self_us + finished.self_us) / base_us);
  layers.emit(out);

  if (!opts.trace_out.empty()) {
    out.check(tracer.write_chrome(opts.trace_out), "cannot write " + opts.trace_out);
  }
}

}  // namespace taps_bench
