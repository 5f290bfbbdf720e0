#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace taps::sim {

using net::Flow;
using net::FlowId;
using net::FlowState;
using net::TaskId;

// Arrival events: one per (task, wave arrival time). A plain task is one
// wave; tasks extended with later flows (Network::extend_task) produce one
// event per distinct flow arrival, re-announcing the task to the scheduler
// each time new flows become available.
std::vector<Wave> build_waves(const net::Network& net) {
  std::vector<Wave> waves;
  waves.reserve(net.tasks().size());
  for (const auto& t : net.tasks()) {
    double last = -1.0;
    for (const FlowId fid : t.spec.flows) {
      const double at = net.flow(fid).spec.arrival;
      if (at != last) {
        waves.push_back(Wave{at, t.id()});
        last = at;
      }
    }
    if (t.spec.flows.empty()) waves.push_back(Wave{t.spec.arrival, t.id()});
  }
  std::sort(waves.begin(), waves.end(), [](const Wave& a, const Wave& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.task < b.task;
  });
  return waves;
}

void finish_run(const net::Network& net, double end_time, SimStats& stats,
                TransmitObserver* observer) {
  stats.end_time = end_time;
  for (const auto& f : net.flows()) {
    if (f.state == FlowState::kCompleted) ++stats.completions;
    if (f.state == FlowState::kMissed) ++stats.misses;
  }
  if (observer != nullptr) observer->on_run_complete(net, end_time);
}

// The loop replays sim::ReferenceSimulator's O(active) rescan with
// sub-O(active) data structures. Every floating-point expression that feeds
// a decision or an observer is kept literally identical to the reference
// loop's, and all per-flow processing runs in enlist-sequence order (== the
// reference active-list order), so runs are bit-identical — pinned by
// tests/sim/sim_engine_equiv_prop_test.cpp and the golden timelines.
//
// Correctness of the completion-candidate set (drained_ + finish_watch_)
// rests on the settle induction documented in DESIGN.md: after every settle,
// all unfinished enlisted flows have remaining > kByteEpsilon, so the next
// settle's completions can only come from flows advance just drained or
// flows enlisted at/below the epsilon since.
SimStats FluidSimulator::run() {
  scheduler_->bind(*net_);
  stats_ = SimStats{};
  now_ = 0.0;

  const std::vector<Wave> waves = build_waves(*net_);
  std::size_t next_arrival = 0;
  double next_rate_change = kInfinity;

  seq_of_.assign(net_->flows().size(), -1);
  in_running_.assign(net_->flows().size(), 0);
  retired_.assign(net_->flows().size(), 0);
  running_.clear();
  deadline_heap_ = DeadlineHeap();
  overdue_.clear();
  finish_watch_.clear();
  active_count_ = 0;
  next_seq_ = 0;
  bool running_unsorted = false;
  // Discard rate writes from before the run: flows only matter once
  // enlisted, and enlistment classifies by the rate it observes directly.
  net_->flow_state().drain_dirty(dirty_scratch_);

  // Decrement active_count_ exactly once per flow observed finished,
  // wherever the engine first notices (settle, compaction, stale heap pop).
  const auto retire = [this](FlowId fid) {
    auto& mark = retired_[static_cast<std::size_t>(fid)];
    if (mark == 0) {
      mark = 1;
      --active_count_;
    }
  };
  const auto by_seq = [](const SeqFlow& a, const SeqFlow& b) { return a.seq < b.seq; };

  while (true) {
    if (++stats_.events > kMaxIterations) {
      throw std::runtime_error("FluidSimulator: event budget exceeded (livelock?)");
    }
    if (running_unsorted) {
      std::sort(running_.begin(), running_.end(), by_seq);
      running_unsorted = false;
    }

    // Next event time: arrival, completion (projected over the running set
    // only — paused flows cannot complete), deadline (heap top), or
    // scheduler-internal rate change. The same pass compacts entries whose
    // flow finished or was paused since the last event.
    double t_next = next_arrival < waves.size() ? waves[next_arrival].time : kInfinity;
    std::size_t kept = 0;
    for (const SeqFlow e : running_) {
      const Flow& f = net_->flow(e.fid);
      if (f.finished() || f.rate <= 0.0) {
        in_running_[static_cast<std::size_t>(e.fid)] = 0;
        if (f.finished()) retire(e.fid);
        continue;
      }
      running_[kept++] = e;
      ++stats_.effort.flows_touched;
      if (f.remaining > kByteEpsilon) {
        t_next = std::min(t_next, now_ + f.remaining / f.rate);
      }
    }
    running_.resize(kept);
    stats_.effort.lazy_skips += active_count_ - std::min(active_count_, kept);

    // Deadline candidate: the heap top, skipping entries whose flow finished
    // and parking entries already behind now_ (they contribute no candidate
    // — same as the reference's `deadline >= now_` filter — but must still
    // be miss-settled later; see overdue_ in the settle below).
    while (!deadline_heap_.empty()) {
      const DeadlineEntry top = deadline_heap_.top();
      if (net_->flow(top.fid).finished()) {
        retire(top.fid);
        ++stats_.effort.heap_invalidations;
        deadline_heap_.pop();
        continue;
      }
      if (top.deadline < now_) {
        overdue_.push_back(SeqFlow{top.seq, top.fid});
        deadline_heap_.pop();
        continue;
      }
      t_next = std::min(t_next, top.deadline);
      break;
    }

    if (next_rate_change > now_) t_next = std::min(t_next, next_rate_change);

    if (t_next == kInfinity) break;
    t_next = std::max(t_next, now_);

    if (observer_ != nullptr) observer_->on_event(t_next);

    // advance_to(t_next), restricted to the running set: every skipped flow
    // would have been a no-op visit in the reference loop (rate <= 0).
    assert(t_next >= now_ - kTimeEpsilon);
    drained_.clear();
    const double dt = t_next - now_;
    if (dt > 0.0) {
      for (const SeqFlow e : running_) {
        Flow& f = net_->flow(e.fid);
        if (f.finished() || f.rate <= 0.0 || f.remaining <= 0.0) continue;
        double bytes = f.rate * dt;
        if (bytes > f.remaining) bytes = f.remaining;  // absorb rounding
        f.remaining -= bytes;
        f.bytes_sent += bytes;
        ++stats_.effort.flows_touched;
        if (observer_ != nullptr) observer_->on_transmit(f, now_, t_next, bytes);
        if (f.remaining <= kByteEpsilon) drained_.push_back(e);
      }
    }
    now_ = t_next;

    // settle(t_next), completions first. drained_ is already in seq order;
    // merging the finish-watch requires a (rare, tiny) re-sort.
    if (!finish_watch_.empty()) {
      drained_.insert(drained_.end(), finish_watch_.begin(), finish_watch_.end());
      finish_watch_.clear();
      std::sort(drained_.begin(), drained_.end(), by_seq);
    }
    for (const SeqFlow e : drained_) {
      Flow& f = net_->flow(e.fid);
      if (f.finished()) continue;
      if (f.remaining <= kByteEpsilon) {
        net_->on_flow_completed(e.fid, now_);
        scheduler_->on_flow_finished(e.fid, now_);
        if (observer_ != nullptr) observer_->on_flow_finished(f, now_);
        retire(e.fid);
      }
    }

    // Misses: pop every deadline at/before now_ (the pop predicate is the
    // reference's miss condition verbatim), add the parked overdue entries,
    // and process in enlist order so scheduler/observer callbacks fire in
    // the reference sequence, not heap order.
    miss_scratch_.clear();
    miss_scratch_.swap(overdue_);
    while (!deadline_heap_.empty() && now_ >= deadline_heap_.top().deadline - kTimeEpsilon) {
      const DeadlineEntry top = deadline_heap_.top();
      deadline_heap_.pop();
      if (net_->flow(top.fid).finished()) {
        retire(top.fid);
        ++stats_.effort.heap_invalidations;
        continue;
      }
      miss_scratch_.push_back(SeqFlow{top.seq, top.fid});
    }
    std::sort(miss_scratch_.begin(), miss_scratch_.end(), by_seq);
    for (const SeqFlow e : miss_scratch_) {
      Flow& f = net_->flow(e.fid);
      if (f.finished()) continue;  // e.g. rejected as a sibling just above
      if (now_ >= f.spec.deadline - kTimeEpsilon) {
        net_->on_flow_missed(e.fid);
        scheduler_->on_flow_finished(e.fid, now_);
        if (observer_ != nullptr) observer_->on_flow_finished(f, now_);
        retire(e.fid);
      }
    }

    while (next_arrival < waves.size() && waves[next_arrival].time <= now_ + kTimeEpsilon) {
      const TaskId tid = waves[next_arrival++].task;
      if (observer_ != nullptr) observer_->on_task_arrival(net_->task(tid), now_);
      scheduler_->on_task_arrival(tid, now_);
      // The observer or scheduler may have registered new flows mid-run
      // (Network::extend_task): grow the per-flow indexes before use.
      if (seq_of_.size() < net_->flows().size()) {
        seq_of_.resize(net_->flows().size(), -1);
        in_running_.resize(net_->flows().size(), 0);
        retired_.resize(net_->flows().size(), 0);
      }
      for (const FlowId fid : net_->task(tid).spec.flows) {
        const auto i = static_cast<std::size_t>(fid);
        if (seq_of_[i] >= 0) continue;
        const Flow& f = net_->flow(fid);
        if (f.state != FlowState::kActive) continue;
        seq_of_[i] = next_seq_++;
        ++active_count_;
        deadline_heap_.push(DeadlineEntry{f.spec.deadline, seq_of_[i], fid});
        if (f.rate > 0.0) {
          running_.push_back(SeqFlow{seq_of_[i], fid});
          in_running_[i] = 1;
          running_unsorted = true;
        }
        // Zero-size admissions complete without ever transmitting; watch
        // them so the next settle picks them up.
        if (f.remaining <= kByteEpsilon) finish_watch_.push_back(SeqFlow{seq_of_[i], fid});
      }
    }

    next_rate_change = scheduler_->assign_rates(now_);
    // Reclassify only the flows whose rate actually moved (the arena's
    // dirty set) instead of rescanning every active flow.
    net_->flow_state().drain_dirty(dirty_scratch_);
    stats_.effort.rate_dirty += dirty_scratch_.size();
    for (const FlowId fid : dirty_scratch_) {
      const auto i = static_cast<std::size_t>(fid);
      if (i >= seq_of_.size() || seq_of_[i] < 0 || in_running_[i] != 0) continue;
      const Flow& f = net_->flow(fid);
      if (f.finished() || f.rate <= 0.0) continue;
      running_.push_back(SeqFlow{seq_of_[i], fid});
      in_running_[i] = 1;
      running_unsorted = true;
    }
  }

  finish_run(*net_, now_, stats_, observer_);
  return stats_;
}

}  // namespace taps::sim
