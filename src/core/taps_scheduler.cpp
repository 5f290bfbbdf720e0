#include "core/taps_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "sched/schedule_observer.hpp"
#include "util/logging.hpp"

namespace taps::core {

using net::Flow;
using net::FlowId;
using net::FlowState;
using net::TaskId;
using net::TaskState;

void TapsScheduler::bind(net::Network& net) {
  BaseScheduler::bind(net);
  occ_ = OccupancyMap(net.graph().link_count());
  slices_.assign(net.flows().size(), util::IntervalSet{});
  committed_order_.clear();
  plan_scratch_.clear();
  counters_ = TapsCounters{};
  journal_.clear();
  session_order_.clear();
  session_plans_.clear();
  session_marks_.clear();
  session_retired_.clear();
  session_adopted_ = 0;
  session_infeasible_ = 0;
  committed_remaining_.assign(net.flows().size(), 0.0);
  cross_arrival_valid_ = false;
  arrivals_since_trim_ = 0;
  rate_heap_ = RateHeap();
  slice_gen_.assign(net.flows().size(), 0);
  rate_touched_mark_.assign(net.flows().size(), 0);
  rate_touched_.clear();
  rate_fallback_ = false;
}

void TapsScheduler::migrate(net::Network& fresh, const std::vector<net::FlowId>& flow_map) {
  assert(journal_.empty());
  assert(flow_map.size() == slices_.size());
  assert(fresh.graph().link_count() == occ_.link_count());
  BaseScheduler::bind(fresh);
  for (const Flow& f : fresh.flows()) {
    if (f.active()) active_.push_back(f.id());
  }
  std::vector<util::IntervalSet> slices(fresh.flows().size());
  std::vector<double> remaining(fresh.flows().size(), 0.0);
  for (std::size_t old = 0; old < flow_map.size(); ++old) {
    const FlowId nid = flow_map[old];
    if (nid == net::kInvalidFlow) continue;
    slices[static_cast<std::size_t>(nid)] = std::move(slices_[old]);
    remaining[static_cast<std::size_t>(nid)] = committed_remaining_[old];
  }
  slices_ = std::move(slices);
  committed_remaining_ = std::move(remaining);
  std::vector<FlowId> order;
  order.reserve(committed_order_.size());
  for (const FlowId fid : committed_order_) {
    const FlowId nid = flow_map[static_cast<std::size_t>(fid)];
    if (nid != net::kInvalidFlow) order.push_back(nid);
  }
  committed_order_ = std::move(order);
  // Dropped committed entries were finished: their future-facing occupancy
  // is empty (completed flows transmitted exactly their slices; preempted
  // flows were vacated at preemption), so the committed map still matches
  // the surviving plan on [now, inf) and occ_ carries over untouched.
  plan_scratch_.clear();
  session_order_.clear();
  session_plans_.clear();
  session_marks_.clear();
  session_retired_.clear();
  session_adopted_ = 0;
  session_infeasible_ = 0;
  // Flow ids changed wholesale: rebuild the event-driven rate state from the
  // surviving committed plan (rate_fallback_ deliberately carries over).
  rate_heap_ = RateHeap();
  slice_gen_.assign(fresh.flows().size(), 0);
  rate_touched_mark_.assign(fresh.flows().size(), 0);
  rate_touched_.clear();
  for (const FlowId fid : committed_order_) touch_slices(fid);
}

std::vector<FlowId> TapsScheduler::unfinished_admitted() const {
  // committed_order_ holds every flow of the last committed plan — a
  // superset of the currently active unfinished flows, because admission
  // always commits a plan covering all of them — already in EDF+SJF order.
  std::vector<FlowId> out;
  out.reserve(committed_order_.size());
  for (const FlowId fid : committed_order_) {
    const Flow& f = net_->flow(fid);
    if (f.active() && f.remaining > sim::kByteEpsilon) out.push_back(fid);
  }
#ifndef NDEBUG
  // The filtered committed order must be exactly the old active_-scan set.
  std::vector<FlowId> check;
  check.reserve(active_.size());
  for (const FlowId fid : active_) {
    const Flow& f = net_->flow(fid);
    if (!f.finished() && f.remaining > sim::kByteEpsilon) check.push_back(fid);
  }
  std::vector<FlowId> a = out, b = check;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  assert(a == b);
#endif
  return out;
}

void TapsScheduler::sort_order(std::vector<FlowId>& order, std::size_t sorted_prefix) {
  const net::Network& net = *net_;
  const auto cmp = [&net](FlowId a, FlowId b) {
    const Flow& fa = net.flow(a);
    const Flow& fb = net.flow(b);
    if (fa.spec.deadline != fb.spec.deadline) return fa.spec.deadline < fb.spec.deadline;
    if (fa.remaining != fb.remaining) return fa.remaining < fb.remaining;
    return a < b;
  };
  assert(sorted_prefix <= order.size());
  const auto prefix_end = order.begin() + static_cast<std::ptrdiff_t>(sorted_prefix);
  if (std::is_sorted(order.begin(), prefix_end, cmp)) {
    std::sort(prefix_end, order.end(), cmp);
    std::inplace_merge(order.begin(), prefix_end, order.end(), cmp);
    ++counters_.incremental_sorts;
  } else {
    // Remaining-size drift reordered a deadline tie since the last commit.
    std::sort(order.begin(), order.end(), cmp);
    ++counters_.full_sorts;
  }
}

void TapsScheduler::admit(TaskId id, const std::vector<FlowId>& wave, double now) {
  net::Task& t = net_->task(id);
  if (t.state == TaskState::kPending) t.state = TaskState::kAdmitted;
  ++counters_.tasks_accepted;
  for (const FlowId fid : wave) {
    Flow& f = net_->flow(fid);
    if (f.state != FlowState::kActive) {
      f.state = FlowState::kActive;
      active_.push_back(fid);
    }
  }
  sched::ScheduleObserver* obs = schedule_observer();
  if (obs != nullptr) obs->on_task_admitted(id, now);
}

void TapsScheduler::maybe_trim(double now) {
  if (config_.trim_interval == 0) return;
  if (++arrivals_since_trim_ < config_.trim_interval) return;
  arrivals_since_trim_ = 0;
  // Planning only ever reads occupancy at or after `now` and rate assignment
  // never looks backwards, so dropping the past changes nothing — it only
  // bounds memory on long arrival streams. Slices are trimmed together with
  // the map so an incremental vacate-by-slices stays exact.
  occ_.trim_before(now);
  for (auto& sl : slices_) sl.trim_before(now);
  ++counters_.occupancy_trims;
}

void TapsScheduler::on_task_arrival(TaskId id, double now) {
  if (sched::ScheduleObserver* obs = schedule_observer(); obs != nullptr) {
    obs->on_task_seen(id, now);
  }
  // Flows may be registered after bind() (SDN usage registers tasks as
  // probes arrive; Network::extend_task adds waves): grow the slice table.
  if (slices_.size() < net_->flows().size()) slices_.resize(net_->flows().size());
  if (committed_remaining_.size() < net_->flows().size()) {
    committed_remaining_.resize(net_->flows().size(), 0.0);
  }
  if (slice_gen_.size() < net_->flows().size()) {
    slice_gen_.resize(net_->flows().size(), 0);
    rate_touched_mark_.resize(net_->flows().size(), 0);
  }

  net::Task& t = net_->task(id);
  const std::vector<FlowId> wave = pending_wave(id, now);
  if (t.state == TaskState::kRejected || t.state == TaskState::kFailed) {
    // Task is already dead: a later wave can never make it useful, so its
    // flows are declined outright (the paper's no-waste rule).
    for (const FlowId fid : wave) net_->flow(fid).state = FlowState::kRejected;
    return;
  }
  if (wave.empty()) return;

  maybe_trim(now);

  // Snapshot the spent committed flows whose stale slices will be dropped if
  // this arrival commits. Taken before any planning/rejection mutates flow
  // state.
  session_retired_.clear();
  for (const FlowId fid : committed_order_) {
    const Flow& f = net_->flow(fid);
    if (f.active() && f.remaining > sim::kByteEpsilon) continue;
    const auto& sl = slices_[static_cast<std::size_t>(fid)];
    if (!sl.empty() && sl.back_end() <= now) session_retired_.push_back(fid);
  }

  // Algorithm 1's decision cascade as one journaled session over the live
  // committed map. Trial: all unfinished admitted flows plus the newcomers,
  // re-planned from `now` (Ftmp = Ftrans U {arriving flows}). The
  // incumbents come out of unfinished_admitted() in last-committed EDF+SJF
  // order, so usually only the wave has to be sorted in.
  assert(journal_.empty());
  std::vector<FlowId> trial_order = unfinished_admitted();
  const std::size_t incumbent_count = trial_order.size();
  trial_order.insert(trial_order.end(), wave.begin(), wave.end());
  sort_order(trial_order, incumbent_count);
  open_session(trial_order, now);
  plan_tail(trial_order, now);
  ++counters_.replans;

  const RejectOutcome outcome =
      apply_reject_rule(*net_, id, session_plans_, config_.preempt_policy);
  switch (outcome.decision) {
    case Decision::kAccept:
      admit(id, wave, now);
      commit_session(now);
      return;

    case Decision::kPreemptVictim: {
      assert(outcome.victim != net::kInvalidTask);
      // Validate the post-preemption plan BEFORE discarding the victim: the
      // greedy multi-path allocator is not monotone, so removing the victim
      // does not provably keep every survivor feasible. Resume from the
      // longest prefix of the trial plan that survives the removal.
      std::vector<FlowId> order;
      order.reserve(trial_order.size());
      for (const FlowId fid : trial_order) {
        if (net_->flow(fid).task() != outcome.victim) order.push_back(fid);
      }
      resume_session(order, now);
      ++counters_.replans;
      if (session_infeasible_ == 0) {
        net_->reject_task(outcome.victim);
        ++counters_.tasks_preempted;
        if (sched::ScheduleObserver* obs = schedule_observer(); obs != nullptr) {
          obs->on_task_preempted(outcome.victim, id, now);
        }
        admit(id, wave, now);
        commit_session(now);
        return;
      }
      // Preemption would strand a survivor: fall through to rejecting the
      // newcomer instead (the safe choice; the incumbent plan still holds).
      break;
    }

    case Decision::kRejectNew:
      break;
  }
  reject_and_compact(id, trial_order, now);
}

void TapsScheduler::reject_and_compact(TaskId id, const std::vector<FlowId>& order, double now) {
  net_->reject_task(id);
  ++counters_.tasks_rejected;
  if (sched::ScheduleObserver* obs = schedule_observer(); obs != nullptr) {
    obs->on_task_rejected(id, now);
  }
  // Re-plan the incumbents opportunistically: EDF with updated remaining
  // sizes usually compacts the schedule and helps future admissions.
  std::vector<FlowId> incumbents;
  incumbents.reserve(order.size());
  for (const FlowId fid : order) {
    if (net_->flow(fid).task() != id) incumbents.push_back(fid);
  }
  resume_session(incumbents, now);
  ++counters_.replans;
  if (session_infeasible_ == 0) {
    commit_session(now);
  } else {
    abandon_session();
    ++counters_.replan_reverts;
    util::log_debug() << "TAPS: compacting re-plan at t=" << now
                      << " would strand a survivor; keeping the prior plan";
  }
}

void TapsScheduler::open_session(const std::vector<FlowId>& target, double now) {
  assert(journal_.empty());
  session_order_.clear();
  session_plans_.clear();
  session_marks_.clear();
  session_adopted_ = 0;
  session_infeasible_ = 0;

  // Walk the last committed plan in order. The leading run of entries that a
  // full replan would provably reproduce verbatim is adopted in place (their
  // occupancy is already in occ_ — zero work); everything else is vacated so
  // the tail replans against exactly the context the full replan would see.
  // While the validity tokens are stale nothing is adopted: the session is a
  // full replan.
  bool chain = cross_arrival_valid_;
  std::size_t pos = 0;  // next unmatched position of `target`
  for (const FlowId fid : committed_order_) {
    const Flow& f = net_->flow(fid);
    const auto i = static_cast<std::size_t>(fid);
    util::IntervalSet& sl = slices_[i];
    const bool unfinished = f.active() && f.remaining > sim::kByteEpsilon;
    if (!unfinished) {
      if (sl.empty()) continue;
      // The flow left the order, so its occupancy must go. If any of it lies
      // in the future, a full replan would not have reproduced the prefix
      // planned around it — the reusable run ends here.
      if (sl.back_end() > now) chain = false;
      occ_.vacate(f.path, sl, journal_);
      continue;
    }
    if (chain && pos < target.size() && target[pos] == fid && !sl.empty() &&
        sl.front_start() >= now && f.remaining == committed_remaining_[i]) {
      // Reusable: same flow at the same position, remaining bitwise
      // untouched since the commit (no transmission — its slices start at or
      // after `now`), and every earlier position matched too. A full replan
      // recomputes exactly the committed path and slices here (DESIGN.md,
      // "Incremental replanning"), so adopt them without replanning. The
      // plan entry carries just what apply_reject_rule reads.
      session_marks_.push_back(OccupancyMap::checkpoint(journal_));
      session_order_.push_back(fid);
      FlowPlan light;
      light.flow = fid;
      light.completion = sl.back_end();
      light.feasible = true;
      session_plans_.push_back(std::move(light));
      ++pos;
      continue;
    }
    chain = false;
    occ_.vacate(f.path, sl, journal_);
  }
  session_adopted_ = session_order_.size();
  counters_.cross_arrival_reuse_flows += session_adopted_;
}

void TapsScheduler::plan_tail(const std::vector<FlowId>& target, double now) {
  const PlanConfig plan_config{.max_paths = config_.max_paths,
                               .ecmp_routing = config_.ecmp_routing,
                               .guard_band = config_.guard_band};
  for (std::size_t k = session_order_.size(); k < target.size(); ++k) {
    const FlowId fid = target[k];
    session_marks_.push_back(OccupancyMap::checkpoint(journal_));
    FlowPlan plan = plan_one_flow(*net_, occ_, fid, now, plan_config, &plan_scratch_);
    ++counters_.flows_planned;
    if (plan.feasible) {
      occ_.occupy(plan.path, plan.slices, &journal_);
    } else {
      ++session_infeasible_;
    }
    session_order_.push_back(fid);
    session_plans_.push_back(std::move(plan));
  }
}

void TapsScheduler::resume_session(const std::vector<FlowId>& target, double now) {
  std::size_t p = 0;
  while (p < session_order_.size() && p < target.size() && session_order_[p] == target[p]) {
    ++p;
  }
  if (p < session_adopted_) {
    // The new target diverges inside the adopted prefix (e.g. the preemption
    // victim owns one of those flows). Rolling the journal back cannot
    // un-adopt an entry — adopted occupancy predates the session — so
    // restore the committed state wholesale and re-open against the new
    // target; the open walk naturally stops adopting at the first removed
    // flow.
    ++counters_.session_restarts;
    abandon_session();
    open_session(target, now);
  } else {
    if (p < session_order_.size()) {
      occ_.rollback(journal_, session_marks_[p]);
      for (std::size_t k = p; k < session_plans_.size(); ++k) {
        if (!session_plans_[k].feasible) --session_infeasible_;
      }
      session_order_.resize(p);
      session_marks_.resize(p);
      session_plans_.resize(p);
    }
    counters_.checkpoint_reuse_flows += p;
  }
  plan_tail(target, now);
}

void TapsScheduler::commit_session(double now) {
  assert(session_infeasible_ == 0);
  for (const FlowId fid : session_retired_) {
    slices_[static_cast<std::size_t>(fid)].clear();
    touch_slices(fid);
  }
  session_retired_.clear();
  committed_order_.clear();
  committed_order_.reserve(session_order_.size());
  sched::ScheduleObserver* obs = schedule_observer();
  std::vector<sched::CommittedFlowView> view;
  if (obs != nullptr) view.reserve(session_order_.size());
  for (std::size_t k = 0; k < session_order_.size(); ++k) {
    const FlowId fid = session_order_[k];
    const auto i = static_cast<std::size_t>(fid);
    Flow& f = net_->flow(fid);
    bool regranted = false;
    if (k >= session_adopted_) {
      FlowPlan& plan = session_plans_[k];
      // Adopted entries are, by construction, exactly what a full replan
      // would have reproduced verbatim — so comparing only the replanned
      // tail flags the same re-grant set as a full replan's commit.
      regranted = f.path.links != plan.path.links || slices_[i] != plan.slices;
      if (regranted) {
        ++counters_.slice_grants;
        touch_slices(fid);
      }
      f.path = std::move(plan.path);
      slices_[i] = std::move(plan.slices);
    }
    committed_order_.push_back(fid);
    committed_remaining_[i] = f.remaining;
    if (obs != nullptr) view.push_back({fid, f.task(), regranted, &f.path, &slices_[i]});
  }
  ++counters_.plan_commits;
  // occ_ already holds exactly the committed occupancy; the journal's undo
  // history is no longer needed.
  journal_.clear();
  cross_arrival_valid_ = true;
  if (obs != nullptr) obs->on_plan_committed(now, view);
}

void TapsScheduler::abandon_session() {
  occ_.rollback(journal_, OccupancyCheckpoint{});
  journal_.clear();
}

void TapsScheduler::on_flow_finished(FlowId id, double now) {
  BaseScheduler::on_flow_finished(id, now);
  const Flow& f = net_->flow(id);
  if (f.state == FlowState::kMissed) {
    // TAPS never transmits a flow it cannot finish, so under the fluid
    // model an admitted flow missing its deadline would indicate a planner
    // bug. Under packet-quantized execution (pkt::PacketSimulator) a small
    // number of exact-fit admissions land one store-and-forward pipeline
    // late — expected there (see bench_packet_validation). Either way, stop
    // the rest of the task: it has already failed, further bytes would be
    // wasted (the paper's no-waste rule).
    util::log_warn() << "TAPS: admitted flow " << id << " missed its deadline at t=" << now
                     << " (a bug under the fluid engine; expected occasionally under"
                        " packet-quantized execution)";
    // Vacate each unfinished sibling's committed occupancy before its slices
    // are cleared, so occ_ stays exactly the union of committed slices
    // (siblings outside the committed order were already vacated by the
    // session that dropped them). No session is open, so the journal only
    // carries these records and is dropped straight after.
    assert(journal_.empty());
    for (const FlowId fid : committed_order_) {
      const Flow& s = net_->flow(fid);
      if (s.task() == f.task() && !s.finished()) {
        occ_.vacate(s.path, slices_[static_cast<std::size_t>(fid)], journal_);
      }
    }
    journal_.clear();
    const net::Task& t = net_->task(f.task());
    for (const FlowId sibling : t.spec.flows) {
      Flow& s = net_->flow(sibling);
      if (!s.finished()) {
        s.state = FlowState::kRejected;
        s.set_rate(0.0);
        slices_[static_cast<std::size_t>(sibling)].clear();
      }
    }
    // The committed plan was built around the siblings' occupancy, so no
    // prefix of it is provably what a full replan would reproduce: the next
    // session adopts nothing.
    cross_arrival_valid_ = false;
  }
}

void TapsScheduler::touch_slices(FlowId fid) {
  const auto i = static_cast<std::size_t>(fid);
  if (i >= slice_gen_.size()) {
    slice_gen_.resize(slices_.size(), 0);
    rate_touched_mark_.resize(slices_.size(), 0);
  }
  ++slice_gen_[i];
  if (rate_touched_mark_[i] == 0) {
    rate_touched_mark_[i] = 1;
    rate_touched_.push_back(fid);
  }
}

bool TapsScheduler::refresh_rate(FlowId fid, double now) {
  const Flow& f = net_->flow(fid);
  const auto i = static_cast<std::size_t>(fid);
  const auto& sl = slices_[i];
  if (sl.contains(now)) {
    double rate = sim::kInfinity;
    for (const topo::LinkId lid : f.path.links) {
      rate = std::min(rate, net_->link_capacity(lid));
    }
    f.set_rate(rate);
    // In-slice flows always have a boundary after now: the slice's end.
    rate_heap_.push(RateBoundary{sl.next_boundary(now), fid, slice_gen_[i]});
    return true;
  }
  f.set_rate(0.0);
  const double boundary = sl.next_boundary(now);
  if (boundary == sim::kInfinity) return false;  // out of slices, bytes left: makeup
  rate_heap_.push(RateBoundary{boundary, fid, slice_gen_[i]});
  return true;
}

double TapsScheduler::assign_rates(double now) {
  if (rate_fallback_) return assign_rates_reference(now);

  // 1. Flows whose committed slices changed since the last call.
  for (const FlowId fid : rate_touched_) {
    rate_touched_mark_[static_cast<std::size_t>(fid)] = 0;
    if (!net_->flow(fid).active()) continue;  // invalidated entries drop lazily
    if (!refresh_rate(fid, now)) rate_fallback_ = true;
  }
  rate_touched_.clear();

  // 2. Flows whose boundary arrived: their rate steps at `now`.
  while (!rate_fallback_ && !rate_heap_.empty() && rate_heap_.top().time <= now) {
    const RateBoundary top = rate_heap_.top();
    rate_heap_.pop();
    if (top.gen != slice_gen_[static_cast<std::size_t>(top.fid)]) continue;  // superseded
    if (!net_->flow(top.fid).active()) continue;
    if (!refresh_rate(top.fid, now)) rate_fallback_ = true;
  }
  if (rate_fallback_) {
    // Makeup transmission needed. Every event-driven refresh so far wrote
    // the same pure per-flow values a rescan computes, so switching to the
    // full rescan now (and for the rest of the run — makeup grants depend on
    // cross-flow iteration state) is exact.
    return assign_rates_reference(now);
  }

  // 3. Earliest live boundary = the reference loop's return value: every
  // active flow holds exactly one fresh entry (makeup-less flows always have
  // a future boundary), and surviving entries were computed at some t <= now
  // with slices unchanged since, so entry.time == next_boundary(now).
  while (!rate_heap_.empty()) {
    const RateBoundary& top = rate_heap_.top();
    if (top.gen != slice_gen_[static_cast<std::size_t>(top.fid)] ||
        !net_->flow(top.fid).active()) {
      rate_heap_.pop();
      continue;
    }
    return top.time;
  }
  return sim::kInfinity;
}

double TapsScheduler::assign_rates_reference(double now) {
  if (makeup_busy_.size() < net_->graph().link_count()) {
    makeup_busy_.assign(net_->graph().link_count(), 0);
  } else {
    std::fill(makeup_busy_.begin(), makeup_busy_.end(), 0);
  }

  double next_boundary = sim::kInfinity;
  for (const FlowId fid : active_flows()) {
    Flow& f = net_->flow(fid);
    const auto& sl = slices_[static_cast<std::size_t>(fid)];
    if (sl.contains(now)) {
      double rate = sim::kInfinity;
      for (const topo::LinkId lid : f.path.links) {
        rate = std::min(rate, net_->link_capacity(lid));
        makeup_busy_[static_cast<std::size_t>(lid)] = 1;
      }
      f.set_rate(rate);
      next_boundary = std::min(next_boundary, sl.next_boundary(now));
      continue;
    }
    f.set_rate(0.0);
    const double flow_boundary = sl.next_boundary(now);
    if (flow_boundary != sim::kInfinity) {
      // A future slice exists: wait for it.
      next_boundary = std::min(next_boundary, flow_boundary);
      continue;
    }
    // Makeup transmission: the flow ran out of granted slices with bytes
    // still unsent. Under the fluid model this cannot happen (slices are
    // exact); under packet execution a pacing chain can drift a few
    // microseconds past an exact-fit slice end and strand a sub-MTU tail.
    // Let such a stray finish on links that are idle in the committed plan
    // (and not claimed by another flow this round) — exclusivity preserved.
    bool idle = true;
    for (const topo::LinkId lid : f.path.links) {
      const auto i = static_cast<std::size_t>(lid);
      if (makeup_busy_[i] != 0 || occ_.link(lid).contains(now)) {
        idle = false;
        // Retry when this link's planned occupancy next changes.
        next_boundary = std::min(next_boundary, occ_.link(lid).next_boundary(now));
      }
    }
    if (idle) {
      double rate = sim::kInfinity;
      for (const topo::LinkId lid : f.path.links) {
        rate = std::min(rate, net_->link_capacity(lid));
        makeup_busy_[static_cast<std::size_t>(lid)] = 1;
        // The grant lasts only until someone's planned slice begins here.
        next_boundary = std::min(next_boundary, occ_.link(lid).next_boundary(now));
      }
      f.set_rate(rate);
    }
  }
  return next_boundary;
}

}  // namespace taps::core
