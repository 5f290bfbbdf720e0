// Property: svc::Shard decides exactly what a reference shard decides. The
// reference is a net::Network driven by core::FullReplanOracle (every
// replan from scratch) and by the two-loop virtual-time advance, which
// examines every live flow at every request; it builds responses the way
// Shard::process does. The shard under test advances by event (completion
// and first-slice heaps fed from the scheduler's re-grants) and plans with
// watermark-adopted sessions, so this pins both against code that shares
// neither.
//
// Every case runs under both reject-rule readings and all four
// (compact_interval, trim_interval) pairs in {0, 5} x {0, 3}; the reference
// trims on the same cadence and never compacts (compaction is transparent
// to decisions). Responses compare with TaskResponse::operator==, and the
// shard must pass audit() after every request. With
// compaction off, the two also compare flow by flow — state, remaining,
// completion time, path, slices — and link by link on committed occupancy,
// all bitwise.
//
// Streams:
//   - burst: every request at t=0, deadlines on a ramp with +-3-step jitter
//     (the benchmark's burst_admit shape);
//   - coflows: multi-flow tasks with advancing arrivals, so flows transmit,
//     complete and are re-planned part-way;
//   - contested: tight deadlines on a coarse grid (ties) on two hot hosts,
//     so rejects, preemptions and session restarts occur.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/prop.hpp"
#include "common/taps_equiv.hpp"
#include "svc/shard.hpp"
#include "svc/svc_fixtures.hpp"

namespace taps::test {
namespace {

using net::Flow;
using net::FlowId;
using net::Task;
using net::TaskId;

// taps-threading: single-domain -- one test thread drives each instance
class ReferenceShard {
 public:
  ReferenceShard(const topo::Topology& topology, const core::TapsConfig& config)
      : net_(topology), oracle_(config) {
    oracle_.bind(net_);
  }

  svc::TaskResponse process(svc::Seq seq, const svc::TaskRequest& request) {
    advance_to(request.arrival);
    std::vector<net::FlowSpec> specs;
    for (const svc::FlowRequest& fr : request.flows) {
      net::FlowSpec s;
      s.src = fr.src;
      s.dst = fr.dst;
      s.size = fr.size;
      s.arrival = request.arrival;
      s.deadline = request.deadline;
      specs.push_back(s);
    }
    const TaskId local = net_.add_task(request.arrival, request.deadline, specs);
    task_seq_.push_back(seq);

    const std::size_t preempted_before = oracle_.counters().tasks_preempted;
    oracle_.on_task_arrival(local, request.arrival);

    svc::TaskResponse resp;
    resp.seq = seq;
    resp.client_tag = request.client_tag;
    if (oracle_.counters().tasks_preempted != preempted_before) {
      for (const TaskId tid : live_tasks_) {
        if (net_.task(tid).state == net::TaskState::kRejected) {
          resp.preempted.push_back(task_seq_[static_cast<std::size_t>(tid)]);
        }
      }
      std::erase_if(live_tasks_, [&](TaskId id) { return net_.task(id).finished(); });
      std::erase_if(live_flows_, [&](FlowId id) { return net_.flow(id).finished(); });
    }
    const Task& t = net_.task(local);
    if (t.state == net::TaskState::kAdmitted) {
      resp.reason = svc::Reason::kAccepted;
      live_tasks_.push_back(local);
      for (const FlowId fid : t.spec.flows) {
        live_flows_.push_back(fid);
        resp.grants.push_back(svc::FlowGrant{net_.flow(fid).path, oracle_.slices(fid)});
      }
    } else {
      resp.reason = svc::Reason::kPlannerReject;
    }
    return resp;
  }

  [[nodiscard]] const net::Network& network() const { return net_; }
  [[nodiscard]] const core::FullReplanOracle& oracle() const { return oracle_; }

 private:
  // The shard's advance before it became event-driven: completions by a
  // walk over every live flow, then partial progress for every live flow
  // whose first slice began before `t`.
  void advance_to(double t) {
    if (t < clock_) return;
    std::vector<std::pair<double, FlowId>> done;
    std::size_t keep = 0;
    for (const FlowId fid : live_flows_) {
      const Flow& f = net_.flow(fid);
      if (f.finished()) continue;
      const auto& sl = oracle_.slices(fid);
      if (!sl.empty() && sl.back_end() <= t) {
        done.emplace_back(sl.back_end(), fid);
        continue;
      }
      live_flows_[keep++] = fid;
    }
    live_flows_.resize(keep);
    std::sort(done.begin(), done.end());
    for (const auto& [at, fid] : done) {
      net_.on_flow_completed(fid, at);
      oracle_.on_flow_finished(fid, at);
    }
    const double capacity = net_.capacity();
    for (const FlowId fid : live_flows_) {
      Flow& f = net_.flow(fid);
      const auto& sl = oracle_.slices(fid);
      if (sl.empty() || sl.front_start() >= t) continue;
      f.remaining = capacity * sl.overlap_measure(t, sim::kInfinity);
      f.bytes_sent = f.spec.size - f.remaining;
    }
    if (!done.empty()) {
      std::erase_if(live_tasks_, [&](TaskId id) { return net_.task(id).finished(); });
    }
    clock_ = t;
  }

  net::Network net_;
  core::FullReplanOracle oracle_;
  double clock_ = 0.0;
  std::vector<svc::Seq> task_seq_;
  std::vector<TaskId> live_tasks_;
  std::vector<FlowId> live_flows_;
};

std::pair<topo::NodeId, topo::NodeId> any_hosts(const topo::FatTree& ft, util::Rng& rng) {
  const std::vector<topo::NodeId>& hosts = ft.hosts();
  const auto pick = [&] {
    return hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
  };
  const topo::NodeId src = pick();
  topo::NodeId dst = src;
  while (dst == src) dst = pick();
  return {src, dst};
}

std::vector<svc::TaskRequest> burst_stream(const topo::FatTree& ft, util::Rng& rng) {
  constexpr std::int64_t kJitterSteps = 3;
  const auto n = static_cast<std::int64_t>(rng.uniform_int(2, 40));
  const double first = 0.005;
  const double last = rng.uniform_real(0.02, 0.2);
  std::vector<svc::TaskRequest> out;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t pos =
        std::clamp(i + rng.uniform_int(-kJitterSteps, kJitterSteps), std::int64_t{0}, n - 1);
    const double share = static_cast<double>(pos) / static_cast<double>(n - 1);
    const auto [src, dst] = any_hosts(ft, rng);
    out.push_back(task_req(0.0, first + (last - first) * share,
                           {flow_req(src, dst, rng.uniform_real(0.0005, 0.004) * kPow2Capacity)}));
  }
  return out;
}

std::vector<svc::TaskRequest> coflow_stream(const topo::FatTree& ft, util::Rng& rng) {
  const auto n = static_cast<int>(rng.uniform_int(2, 25));
  std::vector<svc::TaskRequest> out;
  double arrival = 0.0;
  for (int i = 0; i < n; ++i) {
    arrival += rng.exponential(0.004) + 1e-7;
    std::vector<svc::FlowRequest> flows;
    double transfer = 0.0;
    const auto nf = static_cast<int>(rng.uniform_int(1, 4));
    for (int j = 0; j < nf; ++j) {
      const auto [src, dst] = any_hosts(ft, rng);
      const double t = rng.uniform_real(0.001, 0.006);
      transfer += t;
      flows.push_back(flow_req(src, dst, t * kPow2Capacity));
    }
    out.push_back(task_req(arrival, arrival + rng.uniform_real(1.1, 4.0) * transfer,
                           std::move(flows)));
  }
  return out;
}

std::vector<svc::TaskRequest> contested_stream(const topo::FatTree& ft, util::Rng& rng) {
  constexpr double kGrid = 0.004;
  const topo::NodeId hot[2] = {any_hosts(ft, rng).first, any_hosts(ft, rng).first};
  const auto n = static_cast<int>(rng.uniform_int(2, 25));
  std::vector<svc::TaskRequest> out;
  double arrival = 0.0;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.4)) arrival += rng.uniform_real(0.0005, 0.003);
    std::vector<svc::FlowRequest> flows;
    const auto nf = static_cast<int>(rng.uniform_int(1, 3));
    for (int j = 0; j < nf; ++j) {
      auto [src, dst] = any_hosts(ft, rng);
      if (rng.bernoulli(0.7)) src = hot[rng.bernoulli(0.5) ? 1 : 0];
      while (dst == src) dst = any_hosts(ft, rng).second;
      const double t = static_cast<double>(rng.uniform_int(1, 4)) * 0.0005;
      flows.push_back(flow_req(src, dst, t * kPow2Capacity));
    }
    const double deadline = std::ceil((arrival + rng.uniform_real(0.001, 0.008)) / kGrid) * kGrid;
    out.push_back(task_req(arrival, deadline, std::move(flows)));
  }
  return out;
}

std::optional<std::string> matches_reference(const topo::FatTree& ft,
                                             const std::vector<svc::TaskRequest>& requests) {
  for (const core::PreemptPolicy policy :
       {core::PreemptPolicy::kProgress, core::PreemptPolicy::kSchedulable}) {
    for (const std::size_t compact : {std::size_t{0}, std::size_t{5}}) {
      for (const std::size_t trim : {std::size_t{0}, std::size_t{3}}) {
        const std::string tag =
            std::string(policy == core::PreemptPolicy::kProgress ? "kProgress" : "kSchedulable") +
            " compact=" + std::to_string(compact) + " trim=" + std::to_string(trim) + ": ";
        svc::ShardConfig config;
        config.compact_interval = compact;
        config.taps.trim_interval = trim;
        config.taps.preempt_policy = policy;
        svc::Shard shard(ft, config);
        ReferenceShard reference(ft, config.taps);
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const svc::TaskResponse got = shard.process(i, requests[i]);
          const svc::TaskResponse want = reference.process(i, requests[i]);
          if (!(got == want)) {
            return tag + "response " + std::to_string(i) + " differs (reason " +
                   svc::to_string(got.reason) + " vs reference " + svc::to_string(want.reason) +
                   ", " + std::to_string(got.preempted.size()) + " vs " +
                   std::to_string(want.preempted.size()) + " preempted)";
          }
          if (auto violation = shard.audit()) {
            return tag + "audit after request " + std::to_string(i) + ": " + *violation;
          }
        }
        if (compact == 0) {
          if (auto diff = compare_with_oracle(shard.network(), shard.scheduler(),
                                              reference.network(), reference.oracle())) {
            return tag + *diff;
          }
        }
      }
    }
  }
  return std::nullopt;
}

TAPS_PROP(ShardRefProp, MatchesTwoLoopFullReplanReference, 120) {
  const topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  prop.for_all(
      [&ft](util::Rng& rng) {
        switch (rng.uniform_int(0, 2)) {
          case 0:
            return burst_stream(ft, rng);
          case 1:
            return coflow_stream(ft, rng);
          default:
            return contested_stream(ft, rng);
        }
      },
      [&ft](const std::vector<svc::TaskRequest>& requests) {
        return matches_reference(ft, requests);
      });
}

}  // namespace
}  // namespace taps::test
