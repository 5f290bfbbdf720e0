// Hierarchical cross-pod admission on the sharded service: spanning tasks
// reserve budgeted pod-uplink time at submit (local reserve) and commit on
// the dedicated global domain (global commit). These tests pin the budget
// boundary (exhaustion rejects BEFORE planning; disjoint pods have disjoint
// budgets; windows free up over virtual time) and the mixed-workload quality
// contract against the unsharded controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "svc/svc_fixtures.hpp"

namespace taps::test {
namespace {

using svc::AdmissionService;
using svc::Reason;
using svc::ServiceConfig;
using svc::TaskResponse;

/// One spanning task: a single flow from pod `src_pod` to pod `dst_pod`
/// whose transfer takes `transfer` seconds at host line rate.
svc::TaskRequest spanning(const topo::FatTree& ft, double arrival, double deadline,
                          int src_pod, int dst_pod, double transfer) {
  return task_req(arrival, deadline,
                  {flow_req(ft.host(src_pod, 0, 0), ft.host(dst_pod, 0, 0),
                            transfer * kPow2Capacity)});
}

TEST(SvcCrossPod, BudgetExhaustionRejectsBeforePlanning) {
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  ServiceConfig config;
  config.shards = 4;
  // Pod uplink budget per 1s deadline window: 0.15s of aggregate uplink
  // time. One flow of 0.4s host-rate transfer reserves 0.4/4 = 0.1s on each
  // endpoint pod, so the first spanning task fits and the second does not.
  config.cross_pod_budget = 0.15;
  AdmissionService service(ft, config);
  (void)service.submit(spanning(ft, 0.0, 0.9, 0, 1, 0.4));
  (void)service.submit(spanning(ft, 0.0, 0.9, 0, 1, 0.4));
  // Pods 2 and 3 have untouched budgets: disjoint pods, disjoint reserves.
  (void)service.submit(spanning(ft, 0.0, 0.9, 2, 3, 0.4));
  service.pump();
  auto responses = service.take_responses();
  std::sort(responses.begin(), responses.end(),
            [](const TaskResponse& a, const TaskResponse& b) { return a.seq < b.seq; });
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].accepted());
  EXPECT_EQ(responses[1].reason, Reason::kBudgetExhausted);
  EXPECT_TRUE(responses[2].accepted());
  // The budget reject never reached a shard — it is an admission-control
  // decision, not a planner one.
  EXPECT_EQ(service.shard(service.global_domain()).stats().processed, 2u);
  EXPECT_EQ(service.stats().cross_pod_enqueued, 2u);
  EXPECT_EQ(service.audit(), std::nullopt);
}

TEST(SvcCrossPod, BudgetRecoversInLaterWindows) {
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  ServiceConfig config;
  config.shards = 4;
  config.cross_pod_budget = 0.15;
  AdmissionService service(ft, config);
  (void)service.submit(spanning(ft, 0.0, 0.9, 0, 1, 0.4));
  (void)service.submit(spanning(ft, 0.0, 0.9, 0, 1, 0.4));  // exhausted
  // A later deadline window has its own budget; the old window's
  // reservations expire once arrivals move past it.
  (void)service.submit(spanning(ft, 2.5, 2.9, 0, 1, 0.4));
  service.pump();
  auto responses = service.take_responses();
  std::sort(responses.begin(), responses.end(),
            [](const TaskResponse& a, const TaskResponse& b) { return a.seq < b.seq; });
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].accepted());
  EXPECT_EQ(responses[1].reason, Reason::kBudgetExhausted);
  EXPECT_TRUE(responses[2].accepted());
  EXPECT_EQ(service.audit(), std::nullopt);
}

TEST(SvcCrossPod, FarDeadlineGetsOneResponse) {
  // A deadline 1e20 windows out is finite, so the request is well formed;
  // its reservation window must be too (an integer window key overflowed).
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  ServiceConfig config;
  config.shards = 2;
  AdmissionService service(ft, config);
  (void)service.submit(spanning(ft, 0.0, 1e20, 0, 1, 0.4));
  (void)service.submit(spanning(ft, 0.5, 1e20, 0, 2, 0.4));
  service.pump();
  const auto responses = service.take_responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].accepted());
  EXPECT_TRUE(responses[1].accepted());
  EXPECT_EQ(service.audit(), std::nullopt);
}

TEST(SvcCrossPod, RejectsBadReservationConfig) {
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double window : {0.0, -1.0, nan, inf}) {
    ServiceConfig config;
    config.shards = 2;
    config.cross_pod_window = window;
    EXPECT_THROW(AdmissionService(ft, config), std::invalid_argument) << "window " << window;
  }
  for (const double budget : {-0.5, nan, inf}) {
    ServiceConfig config;
    config.shards = 2;
    config.cross_pod_budget = budget;
    EXPECT_THROW(AdmissionService(ft, config), std::invalid_argument) << "budget " << budget;
  }
  ServiceConfig zero_budget;
  zero_budget.shards = 2;
  zero_budget.cross_pod_budget = 0.0;
  EXPECT_NO_THROW(AdmissionService(ft, zero_budget));
}

TEST(SvcCrossPod, MixedWorkloadMatchesUnshardedAcceptanceWhenUncontended) {
  // A light mixed stream (intra-pod majority, ~30% spanning) that both the
  // hierarchical sharded service and the unsharded controller
  // should admit in full: quality loss under the default budget is zero
  // when the network is uncontended. (Contended quality is measured by
  // bench_svc_admission's oracle-agreement entries.)
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  util::Rng rng(0x5eed);
  std::vector<svc::TaskRequest> requests;
  double arrival = 0.0;
  for (int i = 0; i < 40; ++i) {
    arrival += rng.exponential(0.05) + 1e-7;
    const double transfer = rng.uniform_real(0.005, 0.02);
    const int src_pod = static_cast<int>(rng.uniform_int(0, 3));
    int dst_pod = src_pod;
    if (rng.bernoulli(0.3)) {
      while (dst_pod == src_pod) dst_pod = static_cast<int>(rng.uniform_int(0, 3));
    }
    const topo::NodeId src = ft.host(src_pod, 0, static_cast<int>(rng.uniform_int(0, 1)));
    topo::NodeId dst = src;
    while (dst == src) {
      dst = ft.host(dst_pod, 1, static_cast<int>(rng.uniform_int(0, 1)));
    }
    const double deadline = arrival + rng.uniform_real(3.0, 6.0) * transfer;
    requests.push_back(task_req(arrival, deadline, {flow_req(src, dst, transfer * kPow2Capacity)}));
  }

  ServiceConfig sharded;
  sharded.shards = 4;
  const SvcRun hier = run_service(ft, requests, sharded, /*started=*/false);
  const SvcRun oracle = run_service(ft, requests, ServiceConfig{}, /*started=*/false);

  EXPECT_EQ(hier.audit, std::nullopt);
  EXPECT_GT(hier.stats.cross_pod_enqueued, 0u);
  EXPECT_EQ(hier.stats.accepted, requests.size());
  EXPECT_EQ(oracle.stats.accepted, requests.size());
}

}  // namespace
}  // namespace taps::test
