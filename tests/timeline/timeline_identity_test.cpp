// Recorder-purity pins: attaching a sim::TimelineRecorder must leave every
// observable result bit-identical to the recorder-less run —
//   * FluidSimulator runs (flow outcomes, slices, occupancy, counters);
//   * sweep CSVs, with and without --timeline-dir artifact capture;
//   * svc::Shard request streams (responses + fingerprint), including across
//     a registry compaction;
//   * the sharded AdmissionService (per-shard fingerprints).
// This is what lets production sweeps and services record timelines
// unconditionally: observation can never perturb a schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "core/taps_scheduler.hpp"
#include "exp/sweep.hpp"
#include "sim/timeline.hpp"
#include "svc/svc_fixtures.hpp"

namespace taps::sim {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;

/// Full-precision (hexfloat) dump of a run's committed state: flow outcomes
/// and byte accounting, per-flow paths and slices, per-link occupancy, and
/// the decision counters.
std::string run_fingerprint(const net::Network& net, const core::TapsScheduler& sched) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const net::Flow& f : net.flows()) {
    os << f.id() << ' ' << net::to_string(f.state) << ' ' << f.remaining << ' '
       << f.bytes_sent << ' ' << f.completion_time << " p=";
    for (const topo::LinkId l : f.path.links) os << l << ',';
    os << " s=" << sched.slices(f.id()) << '\n';
  }
  const std::size_t links = net.graph().link_count();
  for (topo::LinkId l = 0; l < static_cast<topo::LinkId>(links); ++l) {
    os << 'L' << l << ' ' << sched.occupancy().link(l) << '\n';
  }
  const core::TapsCounters& c = sched.counters();
  os << c.tasks_accepted << ' ' << c.tasks_rejected << ' ' << c.tasks_preempted << ' '
     << c.replans << ' ' << c.flows_planned << ' ' << c.plan_commits << ' '
     << c.slice_grants << '\n';
  return os.str();
}

/// A contended dumbbell workload mixing feasible tasks, a preemption, and a
/// reject, so the compared runs cross every decision path.
void build_workload(net::Network& net, const test::Dumbbell& d) {
  add_task(net, 0.0, 8.0, {flow(d.left[0], d.right[0], 4.0), flow(d.left[1], d.right[1], 2.0)});
  add_task(net, 1.0, 3.0, {flow(d.left[2], d.right[2], 1.5)});
  add_task(net, 1.0, 9.0, {flow(d.left[3], d.right[3], 3.0)});
  add_task(net, 2.0, 4.0, {flow(d.left[0], d.right[1], 1.0)});
  add_task(net, 2.5, 5.0, {flow(d.left[1], d.right[0], 2.0)});
  add_task(net, 3.0, 6.5, {flow(d.left[2], d.right[3], 2.5)});
}

TEST(TimelineIdentity, SimulatorRunBitIdenticalWithRecorderAttached) {
  auto run_once = [](bool with_recorder) {
    auto d = make_dumbbell(4);
    net::Network net(*d.topology);
    build_workload(net, d);
    core::TapsConfig cfg;
    cfg.preempt_policy = core::PreemptPolicy::kSchedulable;
    cfg.trim_interval = 2;
    core::TapsScheduler sched(cfg);
    TimelineRecorder rec(TimelineConfig{.record_transmissions = true});
    if (with_recorder) sched.set_schedule_observer(&rec);
    FluidSimulator simulator(net, sched);
    if (with_recorder) simulator.set_observer(&rec);
    (void)simulator.run();
    if (with_recorder) {
      EXPECT_GT(rec.events().size(), 6u);
    }
    return run_fingerprint(net, sched);
  };
  const std::string without = run_once(false);
  const std::string with = run_once(true);
  EXPECT_EQ(without, with) << "recorder perturbed the schedule";
}

TEST(TimelineIdentity, SweepCsvByteIdenticalWithTimelineCapture) {
  workload::Scenario s = workload::Scenario::single_rooted(false);
  s.workload.task_count = 8;
  s.seed = 23;
  std::vector<exp::SweepPoint> points{exp::SweepPoint{1.0, s}};
  const std::vector<exp::SchedulerKind> scheds{exp::SchedulerKind::kFairSharing,
                                               exp::SchedulerKind::kTaps};

  const auto tmp = std::filesystem::temp_directory_path();
  const std::string tl_dir = (tmp / "taps_timeline_identity_tl").string();
  const std::string csv_plain = (tmp / "taps_timeline_identity_a.csv").string();
  const std::string csv_recorded = (tmp / "taps_timeline_identity_b.csv").string();

  const exp::SweepResult plain = exp::run_sweep(points, scheds, 1, 2);
  const exp::SweepResult recorded = exp::run_sweep(points, scheds, 1, 2, tl_dir);
  exp::write_sweep_csv(csv_plain, "x", points, scheds, plain, /*include_timing=*/false);
  exp::write_sweep_csv(csv_recorded, "x", points, scheds, recorded,
                       /*include_timing=*/false);

  auto slurp = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << path;
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(slurp(csv_plain), slurp(csv_recorded));

  // The capture side effect itself: one parseable artifact per cell.
  for (const exp::SchedulerKind k : scheds) {
    const std::string path =
        tl_dir + "/timeline_p0_" + std::string(exp::to_string(k)) + ".tlbin";
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "missing timeline artifact " << path;
    const Timeline tl = read_timeline_binary(is);
    EXPECT_FALSE(tl.events.empty());
    EXPECT_EQ(tl.events.back().kind, TimelineEventKind::kRunEnd);
  }
  std::filesystem::remove_all(tl_dir);
  std::remove(csv_plain.c_str());
  std::remove(csv_recorded.c_str());
}

TEST(TimelineIdentity, ShardStreamBitIdenticalAcrossCompaction) {
  topo::FatTree ft(topo::FatTreeConfig{4, test::kPow2Capacity});
  util::Rng rng(0x5EED);
  test::WorkloadKnobs knobs;
  knobs.tasks = 40;
  const std::vector<svc::TaskRequest> requests = test::pod_local_workload(ft, rng, knobs);

  auto run_once = [&](bool with_recorder) {
    svc::ShardConfig cfg;
    cfg.compact_interval = 8;  // several compactions inside the stream
    svc::Shard shard(ft, cfg);
    TimelineRecorder rec;
    if (with_recorder) shard.set_schedule_observer(&rec);
    std::vector<svc::TaskResponse> responses;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      responses.push_back(shard.process(static_cast<svc::Seq>(i), requests[i]));
    }
    if (with_recorder) {
      EXPECT_GT(rec.count(TimelineEventKind::kArrive), 0u);
      EXPECT_EQ(rec.count(TimelineEventKind::kAdmit) + rec.count(TimelineEventKind::kReject),
                requests.size());
    }
    return std::make_pair(shard.fingerprint(), std::move(responses));
  };
  const auto [fp_plain, resp_plain] = run_once(false);
  const auto [fp_rec, resp_rec] = run_once(true);
  EXPECT_EQ(fp_plain, fp_rec);
  EXPECT_EQ(resp_plain, resp_rec);
}

TEST(TimelineIdentity, ShardedServiceBitIdenticalWithShardRecorders) {
  topo::FatTree ft(topo::FatTreeConfig{4, test::kPow2Capacity});
  util::Rng rng(0xBEEF);
  const std::vector<svc::TaskRequest> requests = test::pod_local_workload(ft, rng);

  auto run_once = [&](bool with_recorders) {
    svc::ServiceConfig config;
    config.shards = 2;
    config.queue_capacity = requests.size() + 1;
    svc::AdmissionService service(ft, config);
    std::vector<std::unique_ptr<TimelineRecorder>> recorders;
    if (with_recorders) {
      for (std::size_t i = 0; i < service.shard_count(); ++i) {
        recorders.push_back(std::make_unique<TimelineRecorder>());
        service.set_shard_schedule_observer(i, recorders.back().get());
      }
    }
    for (const svc::TaskRequest& r : requests) (void)service.submit(r);
    service.pump();
    std::vector<std::string> fps;
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      fps.push_back(service.shard(i).fingerprint());
    }
    if (with_recorders) {
      std::size_t events = 0;
      for (const auto& rec : recorders) events += rec->events().size();
      EXPECT_GT(events, 0u);
    }
    auto responses = service.take_responses();
    std::sort(responses.begin(), responses.end(),
              [](const svc::TaskResponse& a, const svc::TaskResponse& b) {
                return a.seq < b.seq;
              });
    return std::make_pair(std::move(fps), std::move(responses));
  };
  const auto [fp_plain, resp_plain] = run_once(false);
  const auto [fp_rec, resp_rec] = run_once(true);
  EXPECT_EQ(fp_plain, fp_rec);
  EXPECT_EQ(resp_plain, resp_rec);
}

}  // namespace
}  // namespace taps::sim
