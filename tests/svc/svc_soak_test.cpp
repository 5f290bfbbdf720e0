// Long-haul soak for the admission service: a sustained pod-local arrival
// stream through a started, sharded, threaded service. Verifies exact
// response accounting (zero counter drift between service and shard
// counters), bounded task/flow registries under compaction, and bounded
// memory growth: process RSS, or the live heap under AddressSanitizer, whose
// quarantine of freed blocks counts as RSS.
//
// Scale: TAPS_SOAK_ARRIVALS overrides the arrival count. The default (100k,
// well under a second) rides along in the default ctest run; CI's soak-smoke
// job and thorough local runs use TAPS_SOAK_ARRIVALS=1000000 (~4 s; see
// docs/CONTROLLER.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "svc/svc_fixtures.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define TAPS_SOAK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TAPS_SOAK_ASAN 1
#endif
#endif

#ifdef TAPS_SOAK_ASAN
// The ASan runtime's live-heap counter (sanitizer/allocator_interface.h).
// NOLINTNEXTLINE(bugprone-reserved-identifier) -- the runtime's own name
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

namespace taps::test {
namespace {

std::size_t soak_arrivals() {
  if (const char* env = std::getenv("TAPS_SOAK_ARRIVALS")) {
    return static_cast<std::size_t>(std::strtoull(env, nullptr, 0));
  }
  return 100000;
}

/// The memory the soak bounds, in KiB (0 when unavailable): resident set
/// size, except under ASan, where freed blocks wait in a quarantine that RSS
/// counts, so the live heap is measured instead.
std::size_t memory_kib() {
#ifdef TAPS_SOAK_ASAN
  return __sanitizer_get_current_allocated_bytes() / 1024;
#else
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kib = 0;
      fields >> kib;
      return kib;
    }
  }
#endif
  return 0;
#endif
}

/// Streaming pod-local generator: arrivals strictly increase for the whole
/// soak, across chunk boundaries.
class ArrivalStream {
 public:
  ArrivalStream(const topo::FatTree& ft, std::uint64_t seed) : ft_(&ft), rng_(seed) {}

  std::vector<svc::TaskRequest> next_chunk(std::size_t n) {
    const int half = ft_->k() / 2;
    const double capacity = ft_->graph().links().front().capacity;
    std::vector<svc::TaskRequest> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      arrival_ += rng_.exponential(0.01) + 1e-7;
      const int pod = static_cast<int>(rng_.uniform_int(0, ft_->k() - 1));
      const topo::NodeId src = ft_->host(pod, static_cast<int>(rng_.uniform_int(0, half - 1)),
                                         static_cast<int>(rng_.uniform_int(0, half - 1)));
      topo::NodeId dst = src;
      while (dst == src) {
        dst = ft_->host(pod, static_cast<int>(rng_.uniform_int(0, half - 1)),
                        static_cast<int>(rng_.uniform_int(0, half - 1)));
      }
      const double transfer = rng_.uniform_real(0.002, 0.02);
      out.push_back(task_req(arrival_, arrival_ + rng_.uniform_real(1.2, 3.0) * transfer,
                             {flow_req(src, dst, transfer * capacity)}));
    }
    return out;
  }

 private:
  const topo::FatTree* ft_;
  util::Rng rng_;
  double arrival_ = 0.0;
};

TEST(SvcSoak, SustainedStreamHasExactAccountingAndBoundedMemory) {
  const std::size_t total = soak_arrivals();
  const std::size_t chunk = std::min<std::size_t>(total, 10000);
  const topo::FatTree ft(topo::FatTreeConfig::scaled());  // k=8, 128 hosts

  svc::ServiceConfig config;
  config.shards = 8;
  config.threads = 4;
  config.max_batch = 64;
  config.queue_capacity = chunk + 1;  // a full chunk never overflows
  config.shard.compact_interval = 4096;
  svc::AdmissionService service(ft, config);
  service.start();

  ArrivalStream stream(ft, 0x5047a6ULL);
  std::size_t submitted = 0;
  std::size_t responded = 0;
  std::array<std::size_t, svc::kReasonCount> reasons{};
  std::size_t warmup_kib = 0;
  while (submitted < total) {
    const std::size_t n = std::min(chunk, total - submitted);
    for (const svc::TaskRequest& r : stream.next_chunk(n)) (void)service.submit(r);
    submitted += n;
    service.wait_idle();
    for (const svc::TaskResponse& r : service.take_responses()) {
      ++responded;
      reasons[static_cast<std::size_t>(r.reason)] += 1;
    }
    if (warmup_kib == 0) warmup_kib = memory_kib();
  }
  service.stop();
  for (const svc::TaskResponse& r : service.take_responses()) {
    ++responded;
    reasons[static_cast<std::size_t>(r.reason)] += 1;
  }

  // Exactly one response per submission; nothing dropped, nothing invented.
  EXPECT_EQ(responded, submitted);
  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, submitted);
  EXPECT_EQ(stats.responses, submitted);
  std::size_t tallied = 0;
  for (const std::size_t n : stats.by_reason) tallied += n;
  EXPECT_EQ(tallied, submitted);
  for (std::size_t r = 0; r < svc::kReasonCount; ++r) {
    EXPECT_EQ(reasons[r], stats.by_reason[r]) << svc::to_string(static_cast<svc::Reason>(r));
  }
  // The stream is well-formed, ordered and pod-local: only the planner may
  // say no.
  EXPECT_EQ(stats.by_reason[static_cast<std::size_t>(svc::Reason::kMalformed)], 0u);
  EXPECT_EQ(stats.by_reason[static_cast<std::size_t>(svc::Reason::kOutOfOrder)], 0u);
  EXPECT_EQ(stats.by_reason[static_cast<std::size_t>(svc::Reason::kQueueFull)], 0u);
  EXPECT_GT(stats.accepted, submitted / 2);  // the load is mostly feasible

  // Zero drift between the service's books and the shards'.
  const std::vector<svc::ShardStats> shards = svc::shard_stats(service);
  const svc::ShardStats total_shard = svc::aggregate(shards);
  EXPECT_EQ(total_shard.processed, stats.enqueued);
  EXPECT_EQ(total_shard.accepted, stats.accepted);
  EXPECT_EQ(total_shard.preempted, stats.preemptions);
  EXPECT_EQ(service.audit(), std::nullopt);

  // Compaction keeps every shard's registry bounded by the compaction window
  // plus the live set — not by the length of the stream.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_LE(shards[i].registered_tasks,
              config.shard.compact_interval + shards[i].live_tasks + 1)
        << "shard " << i;
    if (shards[i].processed > 2 * config.shard.compact_interval) {
      EXPECT_GT(shards[i].compactions, 0u) << "shard " << i;
    }
  }

  // Memory growth after warm-up stays bounded (generous to absorb allocator
  // noise; without compaction this leaks linearly in the stream length).
  const std::size_t end_kib = memory_kib();
  if (warmup_kib != 0 && end_kib != 0) {
    EXPECT_LT(end_kib, warmup_kib + 256 * 1024) << "memory grew by more than 256 MiB";
  }
}

}  // namespace
}  // namespace taps::test
