#include "sim/reference_simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace taps::sim {

using net::Flow;
using net::FlowId;
using net::FlowState;
using net::TaskId;

SimStats ReferenceSimulator::run() {
  scheduler_->bind(*net_);
  stats_ = SimStats{};
  now_ = 0.0;
  active_.clear();

  const std::vector<Wave> waves = build_waves(*net_);
  std::size_t next_arrival = 0;
  double next_rate_change = kInfinity;
  std::vector<char> enlisted(net_->flows().size(), 0);

  while (true) {
    if (++stats_.events > kMaxIterations) {
      throw std::runtime_error("ReferenceSimulator: event budget exceeded (livelock?)");
    }
    // Drop flows that left the active set (completed/missed/rejected).
    std::erase_if(active_, [this](FlowId id) { return net_->flow(id).finished(); });

    // Next event time: arrival, completion, deadline, or scheduler-internal
    // rate change.
    double t_next = next_arrival < waves.size() ? waves[next_arrival].time : kInfinity;
    for (const FlowId fid : active_) {
      const Flow& f = net_->flow(fid);
      ++stats_.effort.flows_touched;
      if (f.rate > 0.0 && f.remaining > kByteEpsilon) {
        t_next = std::min(t_next, now_ + f.remaining / f.rate);
      }
      if (f.spec.deadline >= now_) t_next = std::min(t_next, f.spec.deadline);
    }
    // A rate-change boundary only a hair after now_ must still be taken:
    // discarding it would also discard every boundary behind it until the
    // next arrival/completion event (a paused flow could then sleep through
    // its whole transmission window). Strictly-greater guarantees progress.
    if (next_rate_change > now_) t_next = std::min(t_next, next_rate_change);

    if (t_next == kInfinity) break;
    t_next = std::max(t_next, now_);

    if (observer_ != nullptr) observer_->on_event(t_next);
    advance_to(t_next);
    settle(t_next);

    while (next_arrival < waves.size() && waves[next_arrival].time <= now_ + kTimeEpsilon) {
      const TaskId tid = waves[next_arrival++].task;
      if (observer_ != nullptr) observer_->on_task_arrival(net_->task(tid), now_);
      scheduler_->on_task_arrival(tid, now_);
      // The observer or scheduler may have registered new flows mid-run
      // (Network::extend_task): grow the flag array before indexing it.
      if (enlisted.size() < net_->flows().size()) enlisted.resize(net_->flows().size(), 0);
      for (const FlowId fid : net_->task(tid).spec.flows) {
        auto& flag = enlisted[static_cast<std::size_t>(fid)];
        if (flag == 0 && net_->flow(fid).state == FlowState::kActive) {
          active_.push_back(fid);
          flag = 1;
        }
      }
    }

    next_rate_change = scheduler_->assign_rates(now_);
    // assign_rates may have terminated flows (Early Termination) — their
    // task/flow states are already final; the active list is pruned lazily.
  }

  finish_run(*net_, now_, stats_, observer_);
  return stats_;
}

void ReferenceSimulator::advance_to(double t) {
  assert(t >= now_ - kTimeEpsilon);
  const double dt = t - now_;
  if (dt > 0.0) {
    for (const FlowId fid : active_) {
      Flow& f = net_->flow(fid);
      if (f.finished() || f.rate <= 0.0 || f.remaining <= 0.0) continue;
      double bytes = f.rate * dt;
      if (bytes > f.remaining) bytes = f.remaining;  // absorb rounding
      f.remaining -= bytes;
      f.bytes_sent += bytes;
      if (observer_ != nullptr) observer_->on_transmit(f, now_, t, bytes);
    }
  }
  now_ = t;
}

void ReferenceSimulator::settle(double now) {
  // Completions first: finishing exactly at the deadline counts as meeting it.
  for (const FlowId fid : active_) {
    Flow& f = net_->flow(fid);
    if (f.finished()) continue;
    if (f.remaining <= kByteEpsilon) {
      net_->on_flow_completed(fid, now);
      scheduler_->on_flow_finished(fid, now);
      if (observer_ != nullptr) observer_->on_flow_finished(f, now);
    }
  }
  for (const FlowId fid : active_) {
    Flow& f = net_->flow(fid);
    if (f.finished()) continue;
    if (now >= f.spec.deadline - kTimeEpsilon) {
      net_->on_flow_missed(fid);
      scheduler_->on_flow_finished(fid, now);
      if (observer_ != nullptr) observer_->on_flow_finished(f, now);
    }
  }
}

}  // namespace taps::sim
