// Microbenchmarks for the controller's hot paths: the interval-set
// primitives behind Algorithm 3, whole-set planning (Algorithms 1-2),
// max-min filling (single-rooted, and fat-tree in the flow-level
// baselines' many-round regime), the SDN controller's per-probe decision
// latency — the metric that bounds how fast TAPS can admit tasks — and
// end-to-end simulation throughput per scheduler.
//
// Complements bench_micro_replan (which times the replan and arrival hot
// paths); this binary tracks the broader primitive surface.
// With `--json` the run writes BENCH_micro_core.json for
// scripts/bench_compare.py.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/full_replan_oracle.hpp"
#include "core/path_allocation.hpp"
#include "core/taps_scheduler.hpp"
#include "exp/experiment.hpp"
#include "sched/d2tcp.hpp"
#include "sched/fair_sharing.hpp"
#include "sdn/controller.hpp"
#include "topo/fattree.hpp"
#include "topo/tree.hpp"
#include "util/rng.hpp"
#include "workload/task_generator.hpp"

namespace {

using namespace taps;
using bench::BenchRunner;
using bench::do_not_optimize;

void bench_interval_insert(BenchRunner& runner, std::size_t n) {
  util::Rng rng(1);
  std::vector<std::pair<double, double>> ivs;
  ivs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = rng.uniform_real(0.0, 1000.0);
    ivs.emplace_back(lo, lo + rng.uniform_real(0.01, 2.0));
  }
  runner.run("interval_set/insert/n=" + std::to_string(n), [&] {
    util::IntervalSet s;
    for (const auto& [lo, hi] : ivs) s.insert(lo, hi);
    do_not_optimize(s);
  });
}

void bench_interval_allocate(BenchRunner& runner, std::size_t n) {
  util::Rng rng(2);
  util::IntervalSet occ;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = rng.uniform_real(0.0, 1000.0);
    occ.insert(lo, lo + rng.uniform_real(0.01, 0.5));
  }
  runner.run("interval_set/allocate_earliest/n=" + std::to_string(n), [&] {
    do_not_optimize(occ.allocate_earliest(0.0, 3.0));
  });
}

void bench_path_union(BenchRunner& runner, std::size_t slices_per_link) {
  core::OccupancyMap occ(6);
  util::Rng rng(3);
  topo::Path path;
  path.links = {0, 1, 2, 3, 4, 5};
  for (topo::LinkId l = 0; l < 6; ++l) {
    topo::Path single;
    single.links = {l};
    util::IntervalSet s;
    double t = rng.uniform_real(0.0, 0.001);
    for (std::size_t i = 0; i < slices_per_link; ++i) {
      const double len = rng.uniform_real(0.0001, 0.002);
      s.insert(t, t + len);
      t += len + rng.uniform_real(0.0001, 0.002) + 0.0001;
    }
    occ.occupy(single, s);
  }
  runner.run("occupancy/path_union/slices=" + std::to_string(slices_per_link),
             [&] { do_not_optimize(core::path_union(occ, path)); });
}

/// Whole-task planning cost on the scaled tree (Algorithm 1's inner loop).
void bench_plan_flows(BenchRunner& runner, int flows) {
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network net(tree);
  workload::WorkloadConfig wc;
  wc.task_count = 1;
  wc.flows_per_task_mean = flows;
  wc.arrival_rate = 1.0;
  util::Rng rng(4);
  (void)workload::generate(net, wc, rng);
  std::vector<net::FlowId> order;
  for (const auto& f : net.flows()) order.push_back(f.id());
  core::sort_edf_sjf(net, order);

  core::OccupancyMap occ(net.graph().link_count());
  runner.run("plan_flows/flows=" + std::to_string(flows), [&] {
    occ.clear();
    do_not_optimize(core::plan_flows(net, occ, order, 0.0, core::PlanConfig{}));
  });
}

/// Controller decision latency per probe on the fat-tree (multi-path). Each
/// probe admits state into the controller, so every repeat gets a fresh
/// network + controller built outside the timed region (add_samples).
void bench_controller_on_probe(BenchRunner& runner, std::size_t repeats) {
  const topo::FatTree ft(topo::FatTreeConfig::scaled());
  constexpr std::size_t kTasks = 8;
  std::vector<double> samples;
  samples.reserve(repeats);
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    net::Network net(ft);
    workload::WorkloadConfig wc;
    wc.task_count = kTasks;
    wc.flows_per_task_mean = 16;
    wc.arrival_rate = 1e9;  // all at t=0
    util::Rng rng(5);
    (void)workload::generate(net, wc, rng);
    sdn::Controller controller(net, sdn::ControllerConfig{});

    const auto start = std::chrono::steady_clock::now();
    for (const auto& task : net.tasks()) {
      sdn::ProbePacket probe;
      probe.task = task.id();
      for (const net::FlowId fid : task.spec.flows) {
        const auto& f = net.flow(fid);
        probe.flows.push_back(sdn::SchedulingHeader{fid, task.id(), f.spec.src, f.spec.dst,
                                                    f.spec.size, f.spec.deadline});
      }
      do_not_optimize(controller.on_probe(probe, 0.0));
    }
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    samples.push_back(elapsed.count() / static_cast<double>(kTasks));
  }
  runner.add_samples("controller/on_probe", std::move(samples), kTasks);
}

void bench_progressive_fill(BenchRunner& runner, int flows) {
  const topo::SingleRootedTree tree(topo::SingleRootedConfig::scaled());
  net::Network net(tree);
  workload::WorkloadConfig wc;
  wc.task_count = 1;
  wc.flows_per_task_mean = flows;
  util::Rng rng(6);
  (void)workload::generate(net, wc, rng);

  sched::FairSharing fs;
  fs.bind(net);
  fs.on_task_arrival(0, 0.0);
  runner.run("progressive_fill/flows=" + std::to_string(flows),
             [&] { do_not_optimize(fs.assign_rates(0.0)); });
}

/// Water-filling in the flow-level baselines' many-round regime: a k=8
/// fat-tree carrying ~1,000 active coflow flows at once (the benchmark of
/// record's `baseline_sim` shape), so a call takes tens of rounds where the
/// single-rooted legs above take a handful. D2TCP runs the weighted variant.
template <typename Scheduler>
void bench_fattree_fill(BenchRunner& runner, const std::string& name) {
  const topo::FatTree ft(topo::FatTreeConfig::scaled());
  net::Network net(ft);
  workload::WorkloadConfig wc;
  wc.task_count = 10;
  wc.flows_per_task_mean = 100;
  wc.arrival_rate = 1e9;  // all at t=0
  util::Rng rng(7);
  (void)workload::generate(net, wc, rng);

  Scheduler scheduler;
  scheduler.bind(net);
  double now = 0.0;
  for (const auto& task : net.tasks()) {
    now = task.spec.arrival;
    scheduler.on_task_arrival(task.id(), now);
  }
  runner.run("progressive_fill/fattree_k8/" + name,
             [&] { do_not_optimize(scheduler.assign_rates(now)); });
}

/// End-to-end simulation throughput per scheduler (rate recomputation is
/// each policy's hot loop).
void bench_end_to_end(BenchRunner& runner, exp::SchedulerKind kind) {
  workload::Scenario scenario = workload::Scenario::single_rooted(false);
  scenario.workload.task_count = 20;
  scenario.workload.flows_per_task_mean = 12.0;
  runner.run(std::string("sim/") + exp::to_string(kind), [&] {
    const exp::ExperimentResult r = exp::run_experiment(scenario, kind);
    do_not_optimize(r.metrics.task_completion_ratio);
  });
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_micro_core",
                "controller hot-path microbenchmarks: IntervalSet primitives, "
                "path_union, plan_flows, SDN probe latency, per-scheduler "
                "simulation throughput");
  bench::add_common_options(cli);
  if (!cli.parse(argc, argv)) return 1;
  const bench::CommonOptions o = bench::read_common_options(cli);

  bench::banner("micro_core", "controller hot-path microbenchmarks", o);

  BenchRunner runner;
  runner.options().repeats = std::max<std::size_t>(o.repeats, 5);

  for (const std::size_t n : {64u, 512u, 4096u}) bench_interval_insert(runner, n);
  for (const std::size_t n : {64u, 512u, 4096u}) bench_interval_allocate(runner, n);
  for (const std::size_t n : {16u, 128u, 1024u}) bench_path_union(runner, n);
  for (const int flows : {32, 128, 512}) bench_plan_flows(runner, flows);
  bench_controller_on_probe(runner, runner.options().repeats);
  for (const int flows : {32, 256, 1024}) bench_progressive_fill(runner, flows);
  bench_fattree_fill<sched::FairSharing>(runner, "FairSharing");
  bench_fattree_fill<sched::D2Tcp>(runner, "D2TCP");
  for (int k = 0; k <= 6; ++k) bench_end_to_end(runner, static_cast<exp::SchedulerKind>(k));

  bench::maybe_write_metrics_csv(o, runner);
  bench::maybe_write_json(o, "micro_core", runner);
  return 0;
}
