// Concurrency stress for the hierarchical admission path, built to run under
// ThreadSanitizer (ctest label `tsan`): a many-producer storm of pod-spanning
// tasks drives the service-lock budget reservation (reserve_cross_pod under
// AdmissionService::mu_) concurrently with the dispatcher advancing shard
// domains, whose TapsScheduler commits plans into its occupancy map. The
// scheduler is `taps-threading: single-domain`; what this suite pins is that
// the service keeps it that way — every scheduler mutation stays on the
// shard's domain while submitters hammer the reserve side of the path.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <thread>
#include <vector>

#include "svc/svc_fixtures.hpp"

namespace taps::test {
namespace {

using svc::AdmissionService;
using svc::Reason;
using svc::ServiceConfig;

/// A spanning task: src in `pod`, dst in a different pod — classified to the
/// cross-pod service path (budget reserve, global-domain plan/commit).
svc::TaskRequest spanning_task(const topo::FatTree& ft, util::Rng& rng, double arrival) {
  const int half = ft.k() / 2;
  const double capacity = kPow2Capacity;
  const int src_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
  int dst_pod = src_pod;
  while (dst_pod == src_pod) {
    dst_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
  }
  const topo::NodeId src = ft.host(src_pod, static_cast<int>(rng.uniform_int(0, half - 1)),
                                   static_cast<int>(rng.uniform_int(0, half - 1)));
  const topo::NodeId dst = ft.host(dst_pod, static_cast<int>(rng.uniform_int(0, half - 1)),
                                   static_cast<int>(rng.uniform_int(0, half - 1)));
  const double transfer = rng.uniform_real(0.001, 0.01);
  return task_req(arrival, rng.uniform_real(0.5, 2.0), {flow_req(src, dst, transfer * capacity)});
}

TEST(SvcPodStress, SubmittingStormRacesCrossPodReserveAndCommit) {
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kPerProducer = 100;

  ServiceConfig config;
  config.shards = 4;
  config.threads = 4;
  config.max_batch = 16;
  config.queue_capacity = kProducers * kPerProducer + 1;
  AdmissionService service(ft, config);
  service.start();

  // All arrivals share t=0 (interleaved producers must not trip the
  // monotone-arrival check); every task spans pods, so each submit takes the
  // budget-reservation critical section while committed batches update the
  // global shard's scheduler on its own domain.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(4200 + p);
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        (void)service.submit(spanning_task(ft, rng, 0.0));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.wait_idle();
  service.stop();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.responses, stats.submitted);
  // The storm must actually exercise the cross-pod path (not degrade to
  // budget rejects only): some tasks reserve, enqueue, and get planned.
  EXPECT_GT(stats.cross_pod_enqueued, 0u);

  // Exactly one response per submitted task, with well-formed seqs.
  const auto responses = service.take_responses();
  ASSERT_EQ(responses.size(), stats.submitted);
  std::set<std::uint64_t> seqs;
  std::size_t accepted = 0;
  for (const svc::TaskResponse& r : responses) {
    EXPECT_TRUE(seqs.insert(r.seq).second) << "duplicate response for seq " << r.seq;
    if (r.reason == Reason::kAccepted) {
      ++accepted;
      EXPECT_FALSE(r.grants.empty());
    }
  }
  EXPECT_EQ(accepted, stats.accepted);
  // Committed shard state must audit clean after the race.
  EXPECT_EQ(service.audit(), std::nullopt);
}

TEST(SvcPodStress, MixedLocalAndSpanningStormAuditsClean) {
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  constexpr std::size_t kProducers = 6;
  constexpr std::size_t kPerProducer = 80;

  ServiceConfig config;
  config.shards = 4;
  config.threads = 4;
  config.max_batch = 8;
  config.queue_capacity = kProducers * kPerProducer + 1;
  AdmissionService service(ft, config);
  service.start();

  // Half the producers submit pod-local tasks (sharded domains, commits per
  // shard), half submit spanning tasks (budget reserve + global domain) —
  // the two admission paths race each other end to end.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(9900 + p);
      const int half = ft.k() / 2;
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        if (p % 2 == 0) {
          (void)service.submit(spanning_task(ft, rng, 0.0));
          continue;
        }
        const int pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
        const topo::NodeId src = ft.host(pod, static_cast<int>(rng.uniform_int(0, half - 1)),
                                         static_cast<int>(rng.uniform_int(0, half - 1)));
        topo::NodeId dst = src;
        while (dst == src) {
          dst = ft.host(pod, static_cast<int>(rng.uniform_int(0, half - 1)),
                        static_cast<int>(rng.uniform_int(0, half - 1)));
        }
        const double transfer = rng.uniform_real(0.001, 0.01);
        (void)service.submit(task_req(0.0, rng.uniform_real(0.5, 2.0),
                                      {flow_req(src, dst, transfer * kPow2Capacity)}));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.wait_idle();
  service.stop();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.responses, stats.submitted);
  EXPECT_EQ(service.take_responses().size(), stats.submitted);
  EXPECT_EQ(service.audit(), std::nullopt);
}

}  // namespace
}  // namespace taps::test
