// The per-layer metrics of the traced run. Every workload reports the full
// table (a layer the workload never enters reads 0, e.g. `sched.*` on the
// service workloads), so the traced output always carries the same names as
// BENCHMARK.json's per_layer list; run.py checks the two agree.
#pragma once

#include <string_view>
#include <vector>

#include "bench.hpp"
#include "svc/service.hpp"

namespace taps_bench {

class Layers {
 public:
  Layers();

  /// Set a metric of the table; throws std::logic_error on an unknown name.
  void set(std::string_view name, double value);
  /// Service counters (svc.*), shard registry sizes (shard.*) and the
  /// TapsCounters summed over shards (core.*), over `decisions` requests.
  void add_service(const svc::ServiceStats& stats, const std::vector<svc::ShardStats>& shards,
                   std::size_t decisions);
  void emit(Result& out) const;

 private:
  std::vector<Metric> table_;
};

}  // namespace taps_bench
