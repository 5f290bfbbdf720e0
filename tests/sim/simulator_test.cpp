#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "common/fixtures.hpp"
#include "sched/fair_sharing.hpp"
#include "sim/reference_simulator.hpp"

namespace taps::sim {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;

// A trivially simple scheduler: admits everything, routes on the first path,
// gives every active flow a fixed rate (oversubscription is the test's
// problem). Lets us test the engine in isolation from scheduling policy.
class FixedRateScheduler final : public Scheduler {
 public:
  explicit FixedRateScheduler(double rate) : rate_(rate) {}
  [[nodiscard]] std::string name() const override { return "fixed"; }

  void on_task_arrival(net::TaskId id, double now) override {
    net::Task& t = net_->task(id);
    t.state = net::TaskState::kAdmitted;
    for (const net::FlowId fid : t.spec.flows) {
      net::Flow& f = net_->flow(fid);
      if (f.state != net::FlowState::kPending || f.spec.arrival > now + kTimeEpsilon) {
        continue;  // later waves are admitted when their arrival fires
      }
      f.path = net_->topology().paths(f.spec.src, f.spec.dst, 1).at(0);
      f.state = net::FlowState::kActive;
    }
  }
  void on_flow_finished(net::FlowId, double) override {}
  double assign_rates(double) override {
    for (auto& f : net_->flows()) {
      if (f.active()) f.set_rate(rate_);
    }
    return kInfinity;
  }

 private:
  double rate_;
};

TEST(FluidSimulator, SingleFlowCompletesOnTime) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 4.0)});
  FixedRateScheduler sched(1.0);
  const SimStats stats = test::run(net, sched);

  EXPECT_EQ(stats.completions, 1u);
  EXPECT_EQ(stats.misses, 0u);
  const auto& f = net.flows()[0];
  EXPECT_EQ(f.state, net::FlowState::kCompleted);
  EXPECT_NEAR(f.completion_time, 4.0, 1e-9);
  EXPECT_NEAR(f.bytes_sent, 4.0, 1e-9);
  EXPECT_EQ(net.tasks()[0].state, net::TaskState::kCompleted);
}

TEST(FluidSimulator, FlowFinishingExactlyAtDeadlineCounts) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0, {flow(d.left[0], d.right[0], 4.0)});
  FixedRateScheduler sched(1.0);
  (void)test::run(net, sched);
  EXPECT_EQ(net.flows()[0].state, net::FlowState::kCompleted);
}

TEST(FluidSimulator, MissedDeadlineStopsTransmission) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 2.0, {flow(d.left[0], d.right[0], 4.0)});
  FixedRateScheduler sched(1.0);
  const SimStats stats = test::run(net, sched);

  EXPECT_EQ(stats.misses, 1u);
  const auto& f = net.flows()[0];
  EXPECT_EQ(f.state, net::FlowState::kMissed);
  EXPECT_NEAR(f.bytes_sent, 2.0, 1e-9);  // stopped at the deadline
  EXPECT_NEAR(f.remaining, 2.0, 1e-9);
  EXPECT_EQ(net.tasks()[0].state, net::TaskState::kFailed);
}

TEST(FluidSimulator, LateArrivalStartsOnArrival) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 3.0, 10.0, {flow(d.left[0], d.right[0], 2.0)});
  FixedRateScheduler sched(1.0);
  const SimStats stats = test::run(net, sched);
  EXPECT_NEAR(net.flows()[0].completion_time, 5.0, 1e-9);
  EXPECT_NEAR(stats.end_time, 5.0, 1e-9);
}

TEST(FluidSimulator, TaskFailsIfAnyFlowMisses) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  // Two flows; one can finish by the deadline, the other cannot.
  add_task(net, 0.0, 3.0,
           {flow(d.left[0], d.right[0], 1.0), flow(d.left[1], d.right[1], 9.0)});
  FixedRateScheduler sched(1.0);
  (void)test::run(net, sched);
  EXPECT_EQ(net.flows()[0].state, net::FlowState::kCompleted);
  EXPECT_EQ(net.flows()[1].state, net::FlowState::kMissed);
  EXPECT_EQ(net.tasks()[0].state, net::TaskState::kFailed);
}

TEST(FluidSimulator, ObserverSeesAllBytes) {
  class Sum final : public TransmitObserver {
   public:
    double total = 0.0;
    void on_transmit(const net::Flow&, double, double, double bytes) override {
      total += bytes;
    }
  };
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 4.0)});
  add_task(net, 1.0, 3.0, {flow(d.left[1], d.right[1], 5.0)});  // will miss
  FixedRateScheduler sched(1.0);
  Sum observer;
  FluidSimulator simulator(net, sched);
  simulator.set_observer(&observer);
  (void)simulator.run();

  double sent = 0.0;
  for (const auto& f : net.flows()) sent += f.bytes_sent;
  EXPECT_NEAR(observer.total, sent, 1e-9);
  EXPECT_NEAR(observer.total, 4.0 + 2.0, 1e-9);  // flow 2 sent [1,3) only
}

TEST(FluidSimulator, QuiescesWithNoTasks) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  FixedRateScheduler sched(1.0);
  const SimStats stats = test::run(net, sched);
  EXPECT_EQ(stats.completions, 0u);
  EXPECT_DOUBLE_EQ(stats.end_time, 0.0);
}

TEST(FluidSimulator, ZeroRateFlowMissesAtDeadline) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 2.0, {flow(d.left[0], d.right[0], 1.0)});
  FixedRateScheduler sched(0.0);  // never transmits
  const SimStats stats = test::run(net, sched);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_NEAR(stats.end_time, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(net.flows()[0].bytes_sent, 0.0);
}

TEST(FluidSimulator, MidRunTaskExtensionIsPickedUpByBothEngines) {
  // Regression: the per-flow bookkeeping arrays used to be sized once before
  // the event loop, so a flow registered mid-run via Network::extend_task
  // indexed past their end (caught by ASan). The extension happens inside an
  // observer callback at the first wave, adding a flow to a wave the
  // simulator has already scheduled.
  class Extender final : public TransmitObserver {
   public:
    Extender(net::TaskId task, net::FlowSpec spec) : task_(task), spec_(spec) {}
    void on_transmit(const net::Flow&, double, double, double) override {}
    void on_task_arrival(const net::Task& t, double now) override {
      if (t.id() == task_ && now == 0.0 && !extended_) {
        extended_ = true;
        net_->extend_task(task_, 1.0, {&spec_, 1});
      }
    }
    net::Network* net_ = nullptr;

   private:
    net::TaskId task_;
    net::FlowSpec spec_;
    bool extended_ = false;
  };

  // The indexed loop and taps_oracle's reference loop alike.
  const auto check = [](auto tag, const char* loop) {
    using Simulator = typename decltype(tag)::type;
    auto d = make_dumbbell();
    net::Network net(*d.topology);
    // Task 0 already has two waves (t=0 and t=1), so the wave list contains
    // the t=1 entry the extension flow will ride on.
    const net::TaskId tid = add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 2.0)});
    net.extend_task(tid, 1.0, std::vector<net::FlowSpec>{flow(d.left[1], d.right[1], 1.0)});
    Extender extender(tid, flow(d.left[2], d.right[2], 1.5));
    extender.net_ = &net;
    FixedRateScheduler sched(1.0);
    Simulator simulator(net, sched);
    simulator.set_observer(&extender);
    const SimStats stats = simulator.run();

    ASSERT_EQ(net.flows().size(), 3u) << loop;
    EXPECT_EQ(stats.completions, 3u) << loop;
    const net::Flow& added = net.flows()[2];
    EXPECT_EQ(added.state, net::FlowState::kCompleted) << loop;
    EXPECT_DOUBLE_EQ(added.spec.arrival, 1.0);
    EXPECT_NEAR(added.completion_time, 2.5, 1e-9) << loop;
    EXPECT_NEAR(added.bytes_sent, 1.5, 1e-9) << loop;
  };
  check(std::type_identity<ReferenceSimulator>{}, "reference");
  check(std::type_identity<FluidSimulator>{}, "indexed");
}

TEST(FluidSimulator, RateChangeHookDrivesProgress) {
  // A scheduler that transmits only in [1,2): rate changes must be honored
  // through the assign_rates return value.
  class Windowed final : public Scheduler {
   public:
    [[nodiscard]] std::string name() const override { return "windowed"; }
    void on_task_arrival(net::TaskId id, double) override {
      net::Task& t = net_->task(id);
      t.state = net::TaskState::kAdmitted;
      for (const net::FlowId fid : t.spec.flows) {
        net::Flow& f = net_->flow(fid);
        f.path = net_->topology().paths(f.spec.src, f.spec.dst, 1).at(0);
        f.state = net::FlowState::kActive;
      }
    }
    void on_flow_finished(net::FlowId, double) override {}
    double assign_rates(double now) override {
      for (auto& f : net_->flows()) {
        if (!f.active()) continue;
        f.set_rate((now >= 1.0 && now < 2.0) ? 1.0 : 0.0);
      }
      if (now < 1.0) return 1.0;
      if (now < 2.0) return 2.0;
      return kInfinity;
    }
  };
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 1.0)});
  Windowed sched;
  (void)test::run(net, sched);
  EXPECT_EQ(net.flows()[0].state, net::FlowState::kCompleted);
  EXPECT_NEAR(net.flows()[0].completion_time, 2.0, 1e-9);
}

}  // namespace
}  // namespace taps::sim
