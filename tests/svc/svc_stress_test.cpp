// Concurrency stress for the admission service, built to run under
// ThreadSanitizer (ctest label `tsan`): a many-producer submission storm,
// concurrent shard admissions checked bitwise against a sequential rerun,
// and a shutdown racing live producers. Sizes are modest — TSan multiplies
// runtime — but every cross-thread edge the service has is exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "svc/svc_fixtures.hpp"

namespace taps::test {
namespace {

using svc::AdmissionService;
using svc::Reason;
using svc::ServiceConfig;

TEST(SvcStress, ManyProducerStormGetsExactlyOneResponseEach) {
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

  // All arrivals share t=0 so interleaved producers can never trip the
  // monotone-arrival check; contention comes purely from the submit path.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(1000 + p);
      const int half = ft.k() / 2;
      const double capacity = kPow2Capacity;
      for (std::size_t i = 0; i < kPerProducer; ++i) {
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
                                      {flow_req(src, dst, transfer * capacity)}));
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

TEST(SvcStress, ConcurrentShardAdmitsMatchSequentialRerun) {
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  util::Rng rng(0xcafe);
  WorkloadKnobs knobs;
  knobs.tasks = 200;
  const auto requests = pod_local_workload(ft, rng, knobs);

  ServiceConfig config;
  config.shards = 4;
  config.threads = 4;
  config.max_batch = 32;
  const SvcRun threaded = run_service(ft, requests, config, /*started=*/true);
  ServiceConfig sequential = config;
  sequential.threads = 0;
  const SvcRun pumped = run_service(ft, requests, sequential, /*started=*/false);

  EXPECT_EQ(compare_responses(threaded.responses, pumped.responses), std::nullopt);
  EXPECT_EQ(threaded.fingerprints, pumped.fingerprints);
  EXPECT_EQ(threaded.audit, std::nullopt);
  EXPECT_EQ(pumped.audit, std::nullopt);
}

TEST(SvcStress, ShutdownRacingProducersLosesNoRequest) {
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 200;
  ServiceConfig config;
  config.shards = 4;
  config.threads = 2;
  config.max_batch = 8;
  config.queue_capacity = kProducers * kPerProducer + 1;
  AdmissionService service(ft, config);
  service.start();

  std::atomic<std::size_t> submitted{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(7000 + p);
      const int half = ft.k() / 2;
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const int pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
        const topo::NodeId src = ft.host(pod, 0, static_cast<int>(rng.uniform_int(0, half - 1)));
        const topo::NodeId dst = ft.host(pod, 1, static_cast<int>(rng.uniform_int(0, half - 1)));
        (void)service.submit(
            task_req(0.0, 1.0, {flow_req(src, dst, 0.001 * kPow2Capacity)}));
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Pull the plug while producers are mid-stream: some requests are in
  // flight, some queued, the rest arrive after stopping.
  while (submitted.load(std::memory_order_relaxed) < kProducers * kPerProducer / 4) {
    std::this_thread::yield();
  }
  service.stop();
  for (std::thread& t : producers) t.join();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.responses, stats.submitted);
  const auto responses = service.take_responses();
  EXPECT_EQ(responses.size(), stats.submitted);
  for (const svc::TaskResponse& r : responses) {
    EXPECT_TRUE(r.reason == Reason::kAccepted || r.reason == Reason::kPlannerReject ||
                r.reason == Reason::kShutdown)
        << svc::to_string(r.reason);
  }
  EXPECT_EQ(service.audit(), std::nullopt);
}

TEST(SvcStress, CrossPodReserveCommitStorm) {
  // Producers race the cross-pod reserve path (budget bookkeeping under the
  // service lock) against parallel commits on pod shards AND the global
  // domain. Every request gets exactly one response with a cross-pod-era
  // reason, and the committed state audits clean.
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  constexpr std::size_t kProducers = 6;
  constexpr std::size_t kPerProducer = 100;
  ServiceConfig config;
  config.shards = 4;
  config.threads = 4;
  config.max_batch = 16;
  config.queue_capacity = kProducers * kPerProducer + 1;
  config.cross_pod_budget = 0.05;  // tight: budget rejects happen under load
  AdmissionService service(ft, config);
  ASSERT_TRUE(service.has_global_domain());
  service.start();

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(4200 + p);
      const int half = ft.k() / 2;
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const int src_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
        int dst_pod = src_pod;
        if (rng.bernoulli(0.4)) {
          dst_pod = static_cast<int>(rng.uniform_int(0, ft.k() - 1));
        }
        const topo::NodeId src = ft.host(src_pod, 0, static_cast<int>(rng.uniform_int(0, half - 1)));
        topo::NodeId dst = src;
        while (dst == src) {
          dst = ft.host(dst_pod, 1, static_cast<int>(rng.uniform_int(0, half - 1)));
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
  const auto responses = service.take_responses();
  EXPECT_EQ(responses.size(), stats.submitted);
  for (const svc::TaskResponse& r : responses) {
    EXPECT_TRUE(r.reason == Reason::kAccepted || r.reason == Reason::kPlannerReject ||
                r.reason == Reason::kBudgetExhausted)
        << svc::to_string(r.reason);
  }
  EXPECT_EQ(service.audit(), std::nullopt);
}

}  // namespace
}  // namespace taps::test
