#include "exp/sweep.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "metrics/report.hpp"
#include "sim/timeline.hpp"
#include "util/annotations.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace taps::exp {

namespace {

// The only state sweep workers mutate in common: a progress counter feeding
// debug logging. The result cells themselves need no lock — each worker owns
// exactly one disjoint index (see run_sweep).
struct SweepProgress {
  util::Mutex mu;
  std::size_t done TAPS_GUARDED_BY(mu) = 0;
};

metrics::RunMetrics average(const std::vector<metrics::RunMetrics>& ms) {
  metrics::RunMetrics avg;
  if (ms.empty()) return avg;
  for (const auto& m : ms) {
    avg.tasks_total += m.tasks_total;
    avg.tasks_completed += m.tasks_completed;
    avg.tasks_rejected += m.tasks_rejected;
    avg.flows_total += m.flows_total;
    avg.flows_completed += m.flows_completed;
    avg.task_completion_ratio += m.task_completion_ratio;
    avg.flow_completion_ratio += m.flow_completion_ratio;
    avg.app_throughput += m.app_throughput;
    avg.task_size_ratio += m.task_size_ratio;
    avg.wasted_bandwidth_ratio += m.wasted_bandwidth_ratio;
    avg.total_bytes += m.total_bytes;
    avg.useful_bytes += m.useful_bytes;
    avg.wasted_bytes += m.wasted_bytes;
    avg.replans += m.replans;
    avg.flows_planned += m.flows_planned;
    avg.paths_evaluated += m.paths_evaluated;
    avg.prefix_reuse_flows += m.prefix_reuse_flows;
    avg.prefix_reuse_ratio += m.prefix_reuse_ratio;
    avg.plan_commits += m.plan_commits;
    avg.preemptions += m.preemptions;
    avg.slice_grants += m.slice_grants;
    avg.sim_events += m.sim_events;
    avg.sim_flows_touched += m.sim_flows_touched;
    avg.sim_lazy_skips += m.sim_lazy_skips;
    avg.sim_heap_invalidations += m.sim_heap_invalidations;
    avg.sim_rate_dirty += m.sim_rate_dirty;
  }
  const auto n = static_cast<double>(ms.size());
  avg.task_completion_ratio /= n;
  avg.flow_completion_ratio /= n;
  avg.app_throughput /= n;
  avg.task_size_ratio /= n;
  avg.wasted_bandwidth_ratio /= n;
  avg.prefix_reuse_ratio /= n;
  return avg;
}

}  // namespace

SweepResult run_sweep(const std::vector<SweepPoint>& points,
                      const std::vector<SchedulerKind>& schedulers, std::size_t threads,
                      std::size_t repeats, const std::string& timeline_dir) {
  SweepResult out;
  out.cells.resize(points.size() * schedulers.size());
  if (!timeline_dir.empty()) std::filesystem::create_directories(timeline_dir);

  util::ThreadPool pool(threads);
  SweepProgress progress;
  pool.parallel_for(out.cells.size(), [&](std::size_t idx) {
    const std::size_t pi = idx / schedulers.size();
    const std::size_t si = idx % schedulers.size();
    // Disjoint per-worker slot: no two workers share an idx, so writing the
    // cell is race-free without a lock (TSan-checked by the sweep suite).
    SweepCell& cell = out.cells[idx];
    cell.x = points[pi].x;
    cell.scheduler = schedulers[si];

    std::vector<metrics::RunMetrics> reps;
    reps.reserve(repeats);
    sim::SimStats stats{};
    double wall = 0.0;
    for (std::size_t r = 0; r < repeats; ++r) {
      workload::Scenario s = points[pi].scenario;
      s.seed = util::hash_combine(s.seed, r);
      ExperimentResult res;
      if (r == 0 && !timeline_dir.empty()) {
        // Record the first repeat's timeline. Pure observation — res (and
        // therefore the CSV) is byte-identical to the recorder-less run
        // (pinned by tests/timeline/timeline_identity_test.cpp).
        sim::TimelineRecorder recorder(sim::TimelineConfig{.record_transmissions = true});
        res = run_experiment_full(s, schedulers[si], nullptr, &recorder).result;
        recorder.save_binary(timeline_dir + "/timeline_p" + std::to_string(pi) + "_" +
                             to_string(schedulers[si]) + ".tlbin");
      } else {
        res = run_experiment(s, schedulers[si]);
      }
      reps.push_back(res.metrics);
      stats = res.stats;
      wall += res.wall_seconds;
    }
    cell.result.metrics = average(reps);
    cell.result.stats = stats;
    cell.result.wall_seconds = wall;

    {
      util::MutexLock lock(progress.mu);
      ++progress.done;
      util::log_debug() << "sweep cell " << progress.done << "/" << out.cells.size()
                        << " done (x=" << cell.x << ", scheduler=" << to_string(cell.scheduler)
                        << ")";
    }
  });
  return out;
}

void print_metric_table(std::ostream& os, const std::string& x_label,
                        const std::vector<SweepPoint>& points,
                        const std::vector<SchedulerKind>& schedulers, const SweepResult& result,
                        const std::function<double(const metrics::RunMetrics&)>& select) {
  std::vector<std::string> headers{x_label};
  for (const SchedulerKind k : schedulers) headers.emplace_back(to_string(k));
  metrics::Table table(std::move(headers));
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    std::vector<std::string> row{metrics::Table::format(points[pi].x)};
    for (std::size_t si = 0; si < schedulers.size(); ++si) {
      row.push_back(metrics::Table::format(
          select(result.cell(pi, si, schedulers.size()).result.metrics)));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

void write_sweep_csv(const std::string& path, const std::string& x_label,
                     const std::vector<SweepPoint>& points,
                     const std::vector<SchedulerKind>& schedulers, const SweepResult& result,
                     bool include_timing) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open CSV output: " + path);
  util::CsvWriter csv(out);
  // The sim_* effort columns (and wall_seconds) trail all outcome columns:
  // they are engine-/host-dependent, so engine-equivalence comparisons can
  // strip trailing columns and compare the outcome prefix byte-for-byte.
  // `timing` is the optional trailing wall_seconds field.
  const auto header = [&](const auto&... timing) {
    csv.row(x_label, "scheduler", "task_completion_ratio", "flow_completion_ratio",
            "app_throughput", "task_size_ratio", "wasted_bandwidth_ratio", "tasks_total",
            "tasks_completed", "flows_total", "flows_completed", "replans", "flows_planned",
            "paths_evaluated", "prefix_reuse_flows", "prefix_reuse_ratio", "plan_commits",
            "preemptions", "slice_grants", "sim_events", "sim_flows_touched", "sim_lazy_skips",
            "sim_heap_invalidations", "sim_rate_dirty", timing...);
  };
  if (include_timing) {
    header("wall_seconds");
  } else {
    header();
  }
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    for (std::size_t si = 0; si < schedulers.size(); ++si) {
      const SweepCell& cell = result.cell(pi, si, schedulers.size());
      const metrics::RunMetrics& m = cell.result.metrics;
      const auto row = [&](const auto&... timing) {
        csv.row(cell.x, to_string(cell.scheduler), m.task_completion_ratio,
                m.flow_completion_ratio, m.app_throughput, m.task_size_ratio,
                m.wasted_bandwidth_ratio, m.tasks_total, m.tasks_completed, m.flows_total,
                m.flows_completed, m.replans, m.flows_planned, m.paths_evaluated,
                m.prefix_reuse_flows, m.prefix_reuse_ratio, m.plan_commits, m.preemptions,
                m.slice_grants, m.sim_events, m.sim_flows_touched, m.sim_lazy_skips,
                m.sim_heap_invalidations, m.sim_rate_dirty, timing...);
      };
      if (include_timing) {
        row(cell.result.wall_seconds);
      } else {
        row();
      }
    }
  }
}

}  // namespace taps::exp
