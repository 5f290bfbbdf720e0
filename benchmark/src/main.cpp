// taps_benchmark: runs one workload of the benchmark of record and prints
// its metrics, one `metric <name> = <value> <unit>` line each, followed by a
// single JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error.
//
//   taps_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-out FILE] [--smoke]
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using taps_bench::Options;
using taps_bench::Result;

const std::map<std::string, void (*)(const Options&, Result&)>& workloads() {
  static const std::map<std::string, void (*)(const Options&, Result&)> kWorkloads = {
      {"coflow_admit", &taps_bench::run_coflow_admit},
      {"burst_admit", &taps_bench::run_burst_admit},
      {"mixed_sharded", &taps_bench::run_mixed_sharded},
      {"baseline_sim", &taps_bench::run_baseline_sim},
  };
  return kWorkloads;
}

int usage(const std::string& why) {
  std::cerr << "taps_benchmark: " << why << "\n"
            << "usage: taps_benchmark --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--smoke]\nworkloads:";
  for (const auto& [name, fn] : workloads()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

bool parse_number(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size() && std::isfinite(out);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's allocator thresholds. Left dynamic, whether a large vector
  // is mmapped (and page-faulted anew on every rebuild) flips with sizes a
  // few elements apart, which moved set-up time 3x between seeds.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    double v = 0.0;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--trace-out") {
      opts.trace_out = value;
    } else if (arg == "--seed" && parse_number(value, v) && v >= 0 && v == std::floor(v)) {
      opts.seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--seconds" && parse_number(value, v) && v > 0 && v <= 600) {
      opts.seconds = v;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      opts.trace = value == "1";
    } else {
      return usage("bad argument " + arg + " " + value);
    }
  }
  const auto it = workloads().find(opts.workload);
  if (it == workloads().end()) return usage("unknown workload '" + opts.workload + "'");

  Result result;
  it->second(opts, result);

  for (const auto& [name, value] : result.infos()) {
    std::cout << "info    " << name << " = " << value << "\n";
  }
  for (const taps_bench::Metric& m : result.metrics()) {
    result.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    std::cout << "metric  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  result.check(result.attempted > 0, "no operation attempted");
  for (const std::string& e : result.errors()) std::cout << "error   " << e << "\n";

  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {";
  const char* sep = "";
  for (const taps_bench::Metric& m : result.metrics()) {
    std::cout << sep << "\"" << json_escape(m.name) << "\": {\"value\": "
              << (std::isfinite(m.value) ? number(m.value) : "0") << ", \"unit\": \""
              << json_escape(m.unit) << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return result.correct() ? 0 : 1;
}
