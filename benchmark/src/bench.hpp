// Shared plumbing of the benchmark of record: run options, the result a
// workload reports (metrics, correctness checks, operation counts), timing
// and summary helpers, and the response fingerprint. Nothing here reaches
// into the library beyond its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "svc/shard.hpp"
#include "topo/fattree.hpp"

namespace taps_bench {

namespace core = taps::core;
namespace net = taps::net;
namespace sim = taps::sim;
namespace svc = taps::svc;
namespace topo = taps::topo;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run each workload at about 1/20 size (harness check; never compared).
  bool smoke = false;
  /// Chrome trace-event JSON output of the traced run ("" = keep in memory).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload process reports. `attempted` counts the operations the
/// workload made (requests submitted, or flows simulated); `failed` those
/// that ended in an outcome the workload treats as an error.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Informational line (fingerprints, sample counts, chosen percentiles).
  void info(const std::string& name, const std::string& value) {
    info_.emplace_back(name, value);
  }
  /// Record a correctness check; a failed one marks the whole run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return errors_.empty(); }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& infos() const {
    return info_;
  }
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> errors_;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty. Sorts `v` in place.
[[nodiscard]] double quantile(std::vector<double>& v, double q);
[[nodiscard]] double median(std::vector<double> v);
/// "n=... p50=... p90=... p95=... p99=... p99.9=..." of a latency sample,
/// so a reader can see why a workload reports the tail it does.
[[nodiscard]] std::string quantile_summary(std::vector<double>& v);

/// Times the workload's set-up (the topology build, then the library
/// constructors the workload uses) at points spread over the run. Machine
/// noise on a shared host comes in bursts of a second or more, so set-ups
/// timed back to back would all land inside one burst or all outside it;
/// setup_s is the median over the spread samples.
class SetupSampler {
 public:
  struct Sample {
    double topo_s = 0.0;  // topology build
    double rest_s = 0.0;  // everything after it
  };
  explicit SetupSampler(std::function<Sample()> once) : once_(std::move(once)) {}

  /// Take a sample when kInterval has passed since the last one.
  void tick() {
    if (topo_.empty() || seconds_since(last_) >= kInterval) sample();
  }
  void sample();
  /// Medians, after topping up to kMinSamples.
  [[nodiscard]] Sample median_parts();
  [[nodiscard]] double median_total_s();

 private:
  static constexpr double kInterval = 0.2;
  static constexpr std::size_t kMinSamples = 21;

  std::function<Sample()> once_;
  std::vector<double> topo_;
  std::vector<double> rest_;
  std::vector<double> total_;
  Clock::time_point last_;
};

/// The topology every workload runs on: the scaled fat-tree (k=8, 128
/// hosts).
[[nodiscard]] inline topo::FatTreeConfig topology_config() {
  return topo::FatTreeConfig::scaled();
}

/// FNV-1a over decisions, so a change can show its decisions are unchanged.
class Fingerprint {
 public:
  void add_u64(std::uint64_t v);
  void add_double(double v);
  /// Reason, preempted seqs, grant paths and slice endpoints.
  void add_response(const svc::TaskResponse& r);
  [[nodiscard]] std::string hex() const;
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Per-episode input seed, so episodes of one run draw independent inputs.
[[nodiscard]] std::uint64_t episode_seed(std::uint64_t seed, std::uint64_t episode);

// Workloads. Each builds its inputs from opts.seed, measures for about
// opts.seconds, and fills `out` with the end-to-end metrics (or, with
// opts.trace, the per-layer ones).
void run_coflow_admit(const Options& opts, Result& out);
void run_burst_admit(const Options& opts, Result& out);
void run_mixed_sharded(const Options& opts, Result& out);
void run_baseline_sim(const Options& opts, Result& out);

}  // namespace taps_bench
