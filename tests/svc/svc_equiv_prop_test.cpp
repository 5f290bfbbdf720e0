// Property: the service's batching, queueing, pod-sharding and worker
// threads are pure plumbing — admission outcomes, grant slices and committed
// occupancy are bit-identical to the *sequential oracle*: a bare svc::Shard
// per admission domain, fed that domain's requests one at a time in
// submission order, with occupancy trimming and registry compaction both
// disabled. (The shard's scheduler itself is pinned to the from-scratch
// core::FullReplanOracle by the core property suites.)
//
// For every seeded pod-local workload we compare, bitwise:
//   - single-shard service (the paper's global controller) vs a single
//     oracle Shard over the whole stream;
//   - 4-shard service vs four oracle Shards, each over its pod's
//     subsequence;
//   - pumped-inline vs started-with-worker-pool runs of the same config,
//     including per-shard state fingerprints;
// under several batch-size / compaction / trim knob combinations. Failures
// shrink to a minimal request subsequence and print a TAPS_PROP_SEED.
//
// Note what is deliberately NOT claimed: a 1-shard and a 4-shard run are
// not bitwise comparable to each other. TAPS breaks EDF ties by *remaining*
// flow size, and remaining is a function of the replan times — a global
// controller replans a pod's flows at other pods' arrivals too, so
// same-deadline flows can legitimately reorder. Sharded admission is
// per-pod TAPS by definition, and each shard is pinned to the sequential
// oracle over its own stream. See docs/CONTROLLER.md.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/prop.hpp"
#include "svc/svc_fixtures.hpp"

namespace taps::test {
namespace {

struct Knobs {
  const char* label;
  std::size_t max_batch;
  std::size_t compact_interval;
  std::size_t trim_interval;
};

constexpr Knobs kKnobCombos[] = {
    {"batch1/compact0/trim0", 1, 0, 0},
    {"batch3/compact5/trim3", 3, 5, 3},
    {"batch64/compact16/trim64", 64, 16, 64},
};

svc::ServiceConfig service_config(const Knobs& knobs, std::size_t shards, std::size_t threads) {
  svc::ServiceConfig config;
  config.shards = shards;
  config.threads = threads;
  config.max_batch = knobs.max_batch;
  config.shard.compact_interval = knobs.compact_interval;
  config.shard.taps.trim_interval = knobs.trim_interval;
  return config;
}

struct OracleRun {
  std::vector<svc::TaskResponse> responses;  // seq order == submission order
  std::vector<std::string> fingerprints;     // one per admission domain
};

/// The sequential oracle: no queue, no batches, no threads —
/// each domain's Shard processes its requests directly, one at a time.
OracleRun run_oracle(const topo::FatTree& ft, const std::vector<svc::TaskRequest>& requests,
                     std::size_t shards) {
  svc::ShardConfig config;
  config.compact_interval = 0;
  config.taps.trim_interval = 0;
  // Sharded services also carry the (here idle) global cross-pod domain;
  // mirror the layout so fingerprint vectors compare index for index.
  const std::size_t domain_count = shards > 1 ? shards + 1 : shards;
  std::vector<std::unique_ptr<svc::Shard>> domains;
  domains.reserve(domain_count);
  for (std::size_t s = 0; s < domain_count; ++s) {
    domains.push_back(std::make_unique<svc::Shard>(ft, config));
  }
  OracleRun run;
  run.responses.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t s =
        shards > 1
            ? static_cast<std::size_t>(ft.pod_of_host(requests[i].flows.front().src)) % shards
            : 0;
    run.responses.push_back(domains[s]->process(i, requests[i]));
  }
  for (const auto& d : domains) run.fingerprints.push_back(d->fingerprint());
  return run;
}

TAPS_PROP(SvcEquivProp, BatchedShardedMatchesSequentialFullReplanOracle, 160) {
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  prop.for_all(
      [&ft](util::Rng& rng) {
        WorkloadKnobs knobs;
        knobs.tasks = static_cast<std::size_t>(rng.uniform_int(1, 25));
        knobs.mean_gap = rng.uniform_real(0.001, 0.02);
        knobs.slack_lo = 1.05;
        knobs.slack_hi = rng.uniform_real(1.5, 4.0);
        return pod_local_workload(ft, rng, knobs);
      },
      [&ft](const std::vector<svc::TaskRequest>& requests) -> std::optional<std::string> {
        for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
          const OracleRun oracle = run_oracle(ft, requests, shards);
          const std::string tag = "shards=" + std::to_string(shards) + " ";
          for (const Knobs& knobs : kKnobCombos) {
            const SvcRun pumped =
                run_service(ft, requests, service_config(knobs, shards, 0), /*started=*/false);
            if (pumped.audit) {
              return tag + knobs.label + ": audit: " + *pumped.audit;
            }
            if (auto diff = compare_responses(oracle.responses, pumped.responses)) {
              return tag + knobs.label + ": oracle vs service: " + *diff;
            }
            // With trimming and compaction off, the full committed state —
            // per-link occupancy included — must match the oracle bitwise.
            if (knobs.compact_interval == 0 && knobs.trim_interval == 0 &&
                pumped.fingerprints != oracle.fingerprints) {
              return tag + knobs.label + ": committed state diverges from the oracle";
            }

            const SvcRun threaded =
                run_service(ft, requests, service_config(knobs, shards, 4), /*started=*/true);
            if (threaded.audit) {
              return tag + knobs.label + ": threaded audit: " + *threaded.audit;
            }
            if (auto diff = compare_responses(pumped.responses, threaded.responses)) {
              return tag + knobs.label + ": pumped vs threaded: " + *diff;
            }
            if (pumped.fingerprints != threaded.fingerprints) {
              return tag + knobs.label +
                     ": shard fingerprints diverge between pumped and threaded runs";
            }
          }
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace taps::test
