// Microbenchmarks for the TAPS replan hot path (the cost the ROADMAP cares
// about: what the controller pays on EVERY task arrival).
//
// Covered:
//   - util::IntervalSet insert/erase and earliest-fit under heavy
//     fragmentation (the per-link primitive of Algorithm 3);
//   - OccupancyMap::collides and path_union over a deep map;
//   - the full per-arrival replan (EDF+SJF sort + plan_flows with the
//     fused allocator and candidate cache) at 1k/10k/50k admitted flows on
//     the scaled fat-tree;
//   - the steady-state per-arrival cost through TapsScheduler itself, on a
//     warm instance (arrival/admitted=N/incremental);
//   - the end-to-end arrival cascade: N tasks admitted back-to-back through
//     a fresh scheduler, where prefix reuse keeps the per-arrival cost low
//     (cascade/arrivals=N/...);
//   - exp::run_sweep thread scaling on a small scenario.
//
// `--quick` shrinks everything to CI-smoke scale. With `--json` the run
// writes BENCH_micro_replan.json for scripts/bench_compare.py.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/full_replan_oracle.hpp"
#include "core/occupancy.hpp"
#include "core/path_allocation.hpp"
#include "core/taps_scheduler.hpp"
#include "exp/sweep.hpp"
#include "net/network.hpp"
#include "topo/fattree.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace {

using taps::bench::BenchRunner;
using taps::bench::do_not_optimize;

/// A set of n busy intervals [2i, 2i+1) — unit holes between all neighbors,
/// the worst fragmentation shape for earliest-fit scans.
taps::util::IntervalSet fragmented_set(std::size_t n) {
  taps::util::IntervalSet set;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = 2.0 * static_cast<double>(i);
    set.insert(lo, lo + 1.0);
  }
  return set;
}

void bench_interval_set(BenchRunner& runner, bool quick) {
  const std::size_t n = quick ? 256 : 4096;
  const double span = 2.0 * static_cast<double>(n);

  taps::util::Rng rng(20260807);
  std::vector<double> xs(1024);
  for (double& x : xs) x = rng.uniform_real(0.0, span - 2.0);

  // Mid-set insert + erase on a fragmented set (state stays bounded: every
  // op removes at most what it added plus one pre-existing busy window).
  {
    taps::util::IntervalSet set = fragmented_set(n);
    std::size_t k = 0;
    runner.run("interval_set/insert_erase", [&] {
      const double lo = xs[k++ & 1023];
      set.insert(lo, lo + 0.75);
      set.erase(lo, lo + 0.75);
      do_not_optimize(set);
    });
  }

  // Earliest-fit needing several holes, from a moving start time.
  {
    const taps::util::IntervalSet set = fragmented_set(n);
    std::size_t k = 0;
    runner.run("interval_set/allocate_earliest", [&] {
      const double from = xs[k++ & 1023];
      const auto got = set.allocate_earliest(from, 25.5, span + 64.0);
      do_not_optimize(got);
    });
  }
}

void bench_occupancy(BenchRunner& runner, bool quick) {
  // A 6-hop path (fat-tree inter-pod length) over a map whose links carry
  // phase-shifted busy patterns, so the path union is ragged.
  const std::size_t link_count = 8;
  const std::size_t per_link = quick ? 128 : 2048;
  taps::core::OccupancyMap occ(link_count);
  taps::topo::Path path;
  for (std::size_t l = 0; l < 6; ++l) {
    path.links.push_back(static_cast<taps::topo::LinkId>(l));
    taps::util::IntervalSet busy;
    for (std::size_t i = 0; i < per_link; ++i) {
      const double lo =
          3.0 * static_cast<double>(i) + 0.35 * static_cast<double>(l);
      busy.insert(lo, lo + 1.0);
    }
    taps::topo::Path one;
    one.links.push_back(static_cast<taps::topo::LinkId>(l));
    occ.occupy(one, busy);
  }
  const double span = 3.0 * static_cast<double>(per_link);

  taps::util::Rng rng(77);
  std::vector<double> xs(1024);
  for (double& x : xs) x = rng.uniform_real(0.0, span - 8.0);

  {
    std::size_t k = 0;
    runner.run("occupancy/collides", [&] {
      const double lo = xs[k++ & 1023];
      taps::util::IntervalSet probe;
      probe.insert(lo, lo + 0.25);
      probe.insert(lo + 2.0, lo + 2.25);
      do_not_optimize(occ.collides(path, probe));
    });
  }
  {
    runner.run("occupancy/path_union", [&] {
      do_not_optimize(taps::core::path_union(occ, path));
    });
  }
}

/// N single-flow tasks between random host pairs on the scaled fat-tree:
/// ~0.5-2 ms transfers with deadlines spread over [50 ms, 4 s], so the
/// occupancy map gets deep and fragmented like a loaded controller's.
struct ReplanInstance {
  taps::net::Network net;
  std::vector<taps::net::FlowId> order;  // EDF+SJF, pre-sorted once

  explicit ReplanInstance(const taps::topo::Topology& topo, std::size_t flows,
                          std::uint64_t seed)
      : net(topo) {
    const auto& hosts = topo.hosts();
    const auto last = static_cast<std::int64_t>(hosts.size()) - 1;
    const double cap = net.capacity();
    taps::util::Rng rng(seed);
    for (std::size_t i = 0; i < flows; ++i) {
      taps::net::FlowSpec fs;
      fs.src = hosts[static_cast<std::size_t>(rng.uniform_int(0, last))];
      do {
        fs.dst = hosts[static_cast<std::size_t>(rng.uniform_int(0, last))];
      } while (fs.dst == fs.src);
      fs.size = cap * rng.uniform_real(0.0005, 0.002);
      const double deadline = rng.uniform_real(0.05, 4.0);
      net.add_task(0.0, deadline, std::span<const taps::net::FlowSpec>(&fs, 1));
    }
    order.resize(flows);
    for (std::size_t i = 0; i < flows; ++i) {
      order[i] = static_cast<taps::net::FlowId>(i);
    }
    taps::core::sort_edf_sjf(net, order);
  }
};

void bench_replan(BenchRunner& runner, bool quick, std::uint64_t seed) {
  const taps::topo::FatTree topo(taps::topo::FatTreeConfig::scaled());
  const std::size_t link_count = topo.graph().link_count();

  std::vector<std::size_t> scales =
      quick ? std::vector<std::size_t>{200} : std::vector<std::size_t>{1000, 10000, 50000};
  for (const std::size_t n : scales) {
    const ReplanInstance inst(topo, n, seed + n);
    // One timed op == one Algorithm-1 replan: re-sort the admitted set and
    // re-plan every flow through a fresh occupancy map.
    const auto replan = [&](const taps::core::PlanConfig& config,
                            taps::core::OccupancyMap& occ,
                            taps::core::PlanScratch* scratch) {
      occ.clear();
      std::vector<taps::net::FlowId> order = inst.order;
      taps::core::sort_edf_sjf(inst.net, order);
      const auto plans =
          taps::core::plan_flows(inst.net, occ, order, 0.0, config, scratch);
      do_not_optimize(plans);
    };

    const std::string prefix = "replan/admitted=" + std::to_string(n) + "/";
    taps::core::OccupancyMap occ(link_count);
    taps::core::PlanScratch scratch;
    const taps::core::PlanConfig config{};
    runner.run(prefix + "optimized", [&] { replan(config, occ, &scratch); });
  }
}

/// Register `tasks` single-flow tasks, all arriving at t=0 with near-sorted
/// deadlines spread over [50 ms, 4 s]: deadline(i) = base + i*step + jitter
/// where jitter < `jitter_steps`*step, so each arrival sorts into the last
/// few EDF positions (small replanned tails under the session).
void fill_arrival_tasks(taps::net::Network& net, const taps::topo::Topology& topo,
                        std::size_t tasks, std::uint64_t seed, double jitter_steps) {
  const auto& hosts = topo.hosts();
  const auto last = static_cast<std::int64_t>(hosts.size()) - 1;
  const double cap = net.capacity();
  const double step = 4.0 / static_cast<double>(tasks);
  taps::util::Rng rng(seed);
  for (std::size_t i = 0; i < tasks; ++i) {
    taps::net::FlowSpec fs;
    fs.src = hosts[static_cast<std::size_t>(rng.uniform_int(0, last))];
    do {
      fs.dst = hosts[static_cast<std::size_t>(rng.uniform_int(0, last))];
    } while (fs.dst == fs.src);
    fs.size = cap * rng.uniform_real(0.0005, 0.002);
    const double deadline = 0.05 + step * static_cast<double>(i) +
                            rng.uniform_real(0.0, jitter_steps * step);
    net.add_task(0.0, deadline, std::span<const taps::net::FlowSpec>(&fs, 1));
  }
}

/// Seconds elapsed feeding tasks [first, first+count) through `sched` at t=0.
double time_arrivals(taps::core::TapsScheduler& sched, std::size_t first,
                     std::size_t count) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    sched.on_task_arrival(static_cast<taps::net::TaskId>(first + i), 0.0);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Steady-state per-arrival cost through TapsScheduler: ONE warm instance
/// holding N admitted flows; each sample times a batch of fresh spare-task
/// arrivals (the per-op time is total/batch) because a single reused-prefix
/// arrival is too fast to time single-shot. The admitted count drifts by
/// well under the batch total over the run, which is deterministic and
/// identical across runs — the gate compares like with like.
void bench_arrival(BenchRunner& runner, bool quick, std::uint64_t seed) {
  const taps::topo::FatTree topo(taps::topo::FatTreeConfig::scaled());
  const std::size_t n = quick ? 200 : 10000;
  const std::size_t repeats = runner.options().repeats;
  const std::size_t batch = quick ? 25 : 4;  // arrivals per sample
  const std::size_t spares = batch * (1 + repeats);

  taps::net::Network net(topo);
  // jitter_steps = 0: strictly increasing deadlines, so warming the instance
  // costs one planned flow per arrival instead of a quadratic cascade.
  fill_arrival_tasks(net, topo, n + spares, seed, 0.0);

  taps::core::TapsScheduler sched;
  sched.bind(net);
  for (std::size_t i = 0; i < n; ++i) {
    sched.on_task_arrival(static_cast<taps::net::TaskId>(i), 0.0);
  }

  std::size_t next = n;
  time_arrivals(sched, next, batch);  // warmup, untimed
  next += batch;
  std::vector<double> samples;
  samples.reserve(repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    samples.push_back(time_arrivals(sched, next, batch) / static_cast<double>(batch));
    next += batch;
  }
  runner.add_samples("arrival/admitted=" + std::to_string(n) + "/incremental",
                     std::move(samples), batch);
}

/// End-to-end arrival cascade: each op binds a fresh scheduler and feeds N
/// near-sorted-deadline tasks through it back-to-back. A full replan per
/// arrival would plan Θ(N²) flows; the session adopts the committed prefix
/// and replans only the tail — the reuse_ratio metric records how much
/// planning that avoids.
void bench_cascade(BenchRunner& runner, bool quick, std::uint64_t seed) {
  const taps::topo::FatTree topo(taps::topo::FatTreeConfig::scaled());
  const std::vector<std::size_t> scales =
      quick ? std::vector<std::size_t>{100}
            : std::vector<std::size_t>{200, 1000, 10000, 50000};
  constexpr std::size_t kSlowSamples = 3;  // samples for multi-second ops

  const auto cascade = [&](std::size_t n) {
    taps::net::Network net(topo);
    fill_arrival_tasks(net, topo, n, seed + n, /*jitter_steps=*/3.0);
    taps::core::TapsScheduler sched;
    sched.bind(net);
    const double secs = time_arrivals(sched, 0, n);
    return std::make_pair(secs, sched.counters());
  };

  for (const std::size_t n : scales) {
    const std::string prefix = "cascade/arrivals=" + std::to_string(n) + "/";
    const bool slow = !quick && n >= 10000;
    const std::size_t reps = slow ? kSlowSamples : runner.options().repeats;

    std::vector<double> inc;
    inc.reserve(reps);
    taps::core::TapsCounters counters;
    for (std::size_t r = 0; r < reps; ++r) {
      auto [secs, c] = cascade(n);
      inc.push_back(secs);
      counters = c;
    }
    runner.add_samples(prefix + "incremental", std::move(inc));
    // Fraction of per-arrival planning avoided by prefix adoption (cross-
    // arrival reuse + checkpoint resume vs flows actually re-planned).
    const double reused = static_cast<double>(counters.cross_arrival_reuse_flows +
                                              counters.checkpoint_reuse_flows);
    const double planned = static_cast<double>(counters.flows_planned);
    runner.add_metric(prefix + "reuse_ratio", reused / std::max(1.0, reused + planned));
  }
}

void bench_sweep_threads(BenchRunner& runner, bool quick) {
  // Thread scaling of the sweep fan-out itself (cells are independent
  // simulations). On a 1-core host the curve is flat — that is the honest
  // answer, and the determinism test guarantees results do not depend on it.
  taps::workload::Scenario base = taps::workload::Scenario::single_rooted(false);
  base.workload.task_count = quick ? 10 : 60;
  std::vector<taps::exp::SweepPoint> points;
  for (int i = 0; i < 4; ++i) {
    taps::exp::SweepPoint p;
    p.x = static_cast<double>(i);
    p.scenario = base;
    p.scenario.seed = taps::util::hash_combine(base.seed, static_cast<std::uint64_t>(i));
    points.push_back(std::move(p));
  }
  const std::vector<taps::exp::SchedulerKind> scheds{taps::exp::SchedulerKind::kTaps};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    runner.run("sweep/threads=" + std::to_string(threads), [&] {
      do_not_optimize(taps::exp::run_sweep(points, scheds, threads, 1));
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  taps::util::Cli cli("bench_micro_replan",
                      "TAPS hot-path microbenchmarks: IntervalSet, OccupancyMap, "
                      "per-arrival replan at 1k/10k/50k flows, steady-state arrivals "
                      "and arrival cascades, sweep thread scaling");
  taps::bench::add_common_options(cli);
  cli.add_flag("quick", "tiny CI-smoke scale (fewer flows, smaller sets)");
  if (!cli.parse(argc, argv)) return 1;
  const taps::bench::CommonOptions o = taps::bench::read_common_options(cli);
  const bool quick = cli.flag("quick");

  taps::bench::banner("micro_replan", "TAPS hot-path microbenchmarks", o);
  if (quick) std::cout << "(quick mode: CI-smoke scale)\n\n";

  BenchRunner runner;
  runner.options().repeats = std::max<std::size_t>(o.repeats, 5);

  bench_interval_set(runner, quick);
  bench_occupancy(runner, quick);
  bench_replan(runner, quick, o.seed);
  bench_arrival(runner, quick, o.seed);
  bench_cascade(runner, quick, o.seed);
  bench_sweep_threads(runner, quick);

  for (const auto& [name, value] : runner.metrics()) {
    std::cout << "metric  " << name << " = " << value << "\n";
  }

  taps::bench::maybe_write_metrics_csv(o, runner);
  taps::bench::maybe_write_json(o, "micro_replan", runner);
  return 0;
}
