// Simulation-engine scale benchmark: fat-tree workloads from 10k to 1M
// flows pushed through both event loops —
//   - sim_scale/<preset>/indexed:   sim::FluidSimulator,
//   - sim_scale/<preset>/reference: sim::ReferenceSimulator (taps_oracle's
//     loop; skipped at the 1M preset, where its O(active)-per-event rescan
//     is the point of the exercise, not a number worth waiting for).
// One sample = seconds per simulator event for one full run (fresh network
// and workload per repeat; construction and generation are untimed), so the
// gated quantity tracks per-event engine cost, not workload size. Derived
// metrics record events/sec, the indexed-over-reference speedup, and the
// process peak RSS after each preset.
//
// Every dual-engine preset also cross-checks bit-identity inline: outcome
// fingerprints (flow states, remaining/bytes_sent/completion_time bits,
// SimStats outcome fields) must match between engines or the bench aborts.
//
// `--quick` runs the k=8/10k-flow preset only (the CI smoke + regression
// gate input); the default adds k=16/100k; `--full` adds k=32/1M (indexed
// only). With `--json` the run writes BENCH_sim_scale.json for
// scripts/bench_compare.py.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/taps_scheduler.hpp"
#include "net/network.hpp"
#include "sim/reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "topo/fattree.hpp"
#include "util/rng.hpp"
#include "workload/task_generator.hpp"

namespace {

using taps::bench::BenchRunner;

struct Preset {
  std::string name;
  int k = 8;                    // fat-tree arity
  int task_count = 0;           // x flows_per_task flows on average
  double flows_per_task = 0.0;  // coflow width (the paper's Fig. 11 axis)
  double arrival_rate = 0.0;    // tasks/sec
  double mean_flow_size = 0.0;  // bytes
  double deadline = 0.0;        // uniform (SLO-style) relative deadline, seconds
  bool both_engines = true;     // reference engine too (off for the 1M preset)
};

/// Wide coflow-style tasks (hundreds of flows sharing one deadline, the
/// paper's Fig. 11 regime): arrivals — and with them TAPS replanning — are
/// rare relative to simulator events, while the shared deadline keeps
/// hundreds-to-thousands of flows in flight at once. That makes the
/// per-event engine passes, not the planner, the measured quantity.
taps::workload::WorkloadConfig workload_for(const Preset& p) {
  taps::workload::WorkloadConfig wc;
  wc.task_count = p.task_count;
  wc.flows_per_task_mean = p.flows_per_task;
  wc.arrival_rate = p.arrival_rate;
  wc.mean_flow_size = p.mean_flow_size;
  wc.flow_size_stddev = p.mean_flow_size / 4.0;
  // Uniform SLO-style deadline: the floor clamps an (effectively zero)
  // exponential draw, so every task gets the same relative deadline. Arrivals
  // then always carry the latest absolute deadline and extend the EDF tail,
  // which keeps admission realistic at deep queue depths.
  wc.min_deadline = p.deadline;
  wc.mean_deadline = p.deadline / 50.0;
  return wc;
}

struct RunOutcome {
  double seconds = 0.0;
  taps::sim::SimStats stats;
  std::uint64_t fingerprint = 0;  // FNV-1a over outcomes; engine-invariant
  std::size_t flows = 0;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename Simulator>
RunOutcome run_once(const taps::topo::FatTree& ft, const Preset& p, std::uint64_t seed) {
  taps::net::Network net(ft);
  taps::util::Rng rng(seed);
  (void)taps::workload::generate(net, workload_for(p), rng);

  taps::core::TapsConfig cfg;
  // Wide coflow tasks mean few arrivals, and trimming is arrival-counted —
  // at the default interval (64) these presets would never trim and every
  // replan would re-merge the whole run's slice history. Trimming never
  // changes a schedule, so this is shared, bit-transparent configuration.
  cfg.trim_interval = 1;
  // Candidate-path budget 8 (vs the repo default 16): controller planning
  // cost is bench_micro_replan's and bench_ablation's quantity, not this
  // bench's — a smaller budget keeps the shared planner out of the
  // per-event numbers at these task widths. Identical for both engines.
  cfg.max_paths = 8;
  taps::core::TapsScheduler scheduler(cfg);
  Simulator simulator(net, scheduler);

  const auto t0 = std::chrono::steady_clock::now();
  const taps::sim::SimStats stats = simulator.run();
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.stats = stats;
  out.flows = net.flows().size();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, &stats.end_time, sizeof(stats.end_time));
  h = fnv1a(h, &stats.events, sizeof(stats.events));
  h = fnv1a(h, &stats.completions, sizeof(stats.completions));
  h = fnv1a(h, &stats.misses, sizeof(stats.misses));
  for (const taps::net::Flow& f : net.flows()) {
    const auto state = static_cast<std::uint8_t>(f.state);
    h = fnv1a(h, &state, sizeof(state));
    h = fnv1a(h, &f.remaining, sizeof(double));
    h = fnv1a(h, &f.bytes_sent, sizeof(double));
    h = fnv1a(h, &f.completion_time, sizeof(double));
  }
  out.fingerprint = h;
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Bench one (preset, engine): samples are seconds per event. Returns the
/// median sec/event and the last run's fingerprint for cross-checking.
struct EngineResult {
  double sec_per_event = 0.0;
  std::uint64_t fingerprint = 0;
};

template <typename Simulator>
EngineResult bench_engine(BenchRunner& runner, const taps::topo::FatTree& ft,
                          const Preset& p, std::uint64_t seed, std::size_t repeats,
                          const char* loop) {
  const std::string name = "sim_scale/" + p.name + "/" + loop;
  std::vector<double> samples;
  samples.reserve(repeats);
  RunOutcome last;
  for (std::size_t r = 0; r < repeats; ++r) {
    last = run_once<Simulator>(ft, p, taps::util::hash_combine(seed, r));
    samples.push_back(last.seconds / static_cast<double>(last.stats.events));
  }
  const double median = runner.add_samples(name, std::move(samples)).median;
  runner.add_metric(name + "/events_per_sec", 1.0 / median);
  runner.add_metric(name + "/events", static_cast<double>(last.stats.events));
  runner.add_metric(name + "/flows", static_cast<double>(last.flows));
  runner.add_metric(name + "/completions", static_cast<double>(last.stats.completions));
  runner.add_metric(name + "/flows_touched",
                    static_cast<double>(last.stats.effort.flows_touched));
  runner.add_metric(name + "/lazy_skips",
                    static_cast<double>(last.stats.effort.lazy_skips));
  std::cout << name << ": " << last.flows << " flows, " << last.stats.events
            << " events, " << last.stats.completions << " completions, "
            << last.stats.misses << " misses, " << 1.0 / median
            << " events/sec, avg touched/event "
            << static_cast<double>(last.stats.effort.flows_touched) /
                   static_cast<double>(last.stats.events)
            << "\n";
  return {median, last.fingerprint};
}

}  // namespace

int main(int argc, char** argv) {
  taps::util::Cli cli("bench_sim_scale",
                      "simulation-engine scale: fat-tree workloads from 10k to 1M "
                      "flows under the indexed and reference engines, with inline "
                      "bit-identity cross-checks");
  taps::bench::add_common_options(cli);
  cli.add_flag("quick", "k=8 / 10k-flow preset only (CI smoke + regression gate)");
  if (!cli.parse(argc, argv)) return 1;
  const taps::bench::CommonOptions o = taps::bench::read_common_options(cli);
  const bool quick = cli.flag("quick");

  taps::bench::banner("sim_scale", "million-flow simulation engine scaling", o);
  if (quick) std::cout << "(quick mode: k8_10k preset only)\n\n";

  // Preset shape matters: deadlines must be generous enough that admission
  // succeeds across seeds (a rejected task contributes planner work but no
  // events, which starves the loop both engines share). Exclusive slices
  // must align on every link of a 6-hop path, so a wide coflow's makespan
  // runs several times the naive per-host queue estimate and admitted
  // flows linger far beyond their 80 ms transmit time (10 MB on a 1 Gb/s
  // edge) — tens of thousands queue admitted-but-paused while only the few
  // hundred holding a current slice transmit, the gap the indexed engine
  // exploits and the reference rescan pays for on every event.
  std::vector<Preset> presets;
  presets.push_back({"k8_10k", 8, 10, 1000.0, 0.5, 10.0e6, 4.500, true});
  if (!quick)
    presets.push_back({"k16_100k", 16, 10, 10000.0, 0.5, 10.0e6, 48.000, true});
  // The 1M preset deliberately overloads the fabric: TAPS admission control
  // sheds most tasks (the paper's overload behaviour), and the engine still
  // ingests every arrival and drives ~240k admitted flows to completion.
  if (!quick && o.full_scale)
    presets.push_back({"k32_1m", 32, 125, 8000.0, 2.0, 10.0e6, 24.000, false});

  BenchRunner runner;
  runner.options().repeats = o.repeats;
  runner.options().verbose = false;

  for (const Preset& p : presets) {
    const taps::topo::FatTree ft(
        taps::topo::FatTreeConfig{p.k, taps::topo::kGigabitPerSecond});
    const EngineResult indexed = bench_engine<taps::sim::FluidSimulator>(
        runner, ft, p, o.seed, o.repeats, "indexed");
    if (p.both_engines) {
      const EngineResult reference = bench_engine<taps::sim::ReferenceSimulator>(
          runner, ft, p, o.seed, o.repeats, "reference");
      if (indexed.fingerprint != reference.fingerprint) {
        std::cerr << "bench_sim_scale: ENGINE DIVERGENCE at preset " << p.name
                  << " (indexed fingerprint != reference fingerprint)\n";
        return 1;
      }
      const double speedup = reference.sec_per_event / indexed.sec_per_event;
      runner.add_metric("sim_scale/" + p.name + "/speedup", speedup);
      std::cout << "sim_scale/" << p.name << "/speedup = " << speedup << "x\n";
    }
    runner.add_metric("sim_scale/" + p.name + "/peak_rss_mb", peak_rss_mb());
  }

  taps::bench::maybe_write_metrics_csv(o, runner);
  taps::bench::maybe_write_json(o, "sim_scale", runner);
  return 0;
}
