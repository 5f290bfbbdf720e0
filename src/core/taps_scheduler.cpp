#include "core/taps_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

#include "sched/schedule_observer.hpp"
#include "util/logging.hpp"

namespace taps::core {

using net::Flow;
using net::FlowId;
using net::FlowState;
using net::TaskId;
using net::TaskState;

namespace {

/// Algorithm 1's replan order: EDF, then SJF on remaining bytes, then flow
/// id. A strict total order, so every route to a sorted order (a full sort,
/// or a sorted tail merged into a sorted prefix) yields the same one.
// taps-threading: thread-compatible
struct EdfSjf {
  const net::Network* net;
  bool operator()(FlowId a, FlowId b) const {
    const Flow& fa = net->flow(a);
    const Flow& fb = net->flow(b);
    if (fa.spec.deadline != fb.spec.deadline) return fa.spec.deadline < fb.spec.deadline;
    if (fa.remaining != fb.remaining) return fa.remaining < fb.remaining;
    return a < b;
  }
};

/// A flow Algorithm 1 still has to plan (F_trans).
bool unfinished(const Flow& f) { return f.active() && f.remaining > sim::kByteEpsilon; }

}  // namespace

void TapsScheduler::bind(net::Network& net) {
  BaseScheduler::bind(net);
  occ_ = OccupancyMap(net.graph().link_count());
  slices_.assign(net.flows().size(), util::IntervalSet{});
  committed_order_.clear();
  committed_min_start_.clear();
  committed_pos_.assign(net.flows().size(), kNoPosition);
  adopt_limit_ = 0;
  plan_scratch_.clear();
  counters_ = TapsCounters{};
  journal_.clear();
  session_adopted_ = 0;
  trial_base_ = 0;
  trial_.clear();
  target_.clear();
  session_order_.clear();
  session_plans_.clear();
  session_marks_.clear();
  session_retired_.clear();
  session_infeasible_ = 0;
  regranted_.clear();
  preempted_ = net::kInvalidTask;
  committed_remaining_.assign(net.flows().size(), 0.0);
  arrivals_since_trim_ = 0;
  last_trim_ = -sim::kInfinity;
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
  // Kept entries keep their prefix minimum, dropped entries' starts
  // included, and the adoption limit keeps its place among them: the
  // watermark falls at the same kept flow as it would have without the
  // migration (dropped flows are finished, so none sits before it).
  std::vector<FlowId> order;
  std::vector<double> min_start;
  order.reserve(committed_order_.size());
  min_start.reserve(committed_order_.size());
  std::size_t limit = 0;
  for (std::size_t k = 0; k < committed_order_.size(); ++k) {
    const FlowId nid = flow_map[static_cast<std::size_t>(committed_order_[k])];
    if (nid == net::kInvalidFlow) continue;
    if (k < adopt_limit_) ++limit;
    order.push_back(nid);
    min_start.push_back(committed_min_start_[k]);
  }
  committed_order_ = std::move(order);
  committed_min_start_ = std::move(min_start);
  adopt_limit_ = limit;
  committed_pos_.assign(fresh.flows().size(), kNoPosition);
  for (std::size_t k = 0; k < committed_order_.size(); ++k) {
    committed_pos_[static_cast<std::size_t>(committed_order_[k])] = static_cast<std::uint32_t>(k);
  }
  // Dropped committed entries were finished: their future-facing occupancy
  // is empty (completed flows transmitted exactly their slices; preempted
  // flows were vacated at preemption), so the committed map still matches
  // the surviving plan on [now, inf) and occ_ carries over untouched.
  plan_scratch_.clear();
  session_adopted_ = 0;
  trial_base_ = 0;
  trial_.clear();
  target_.clear();
  session_order_.clear();
  session_plans_.clear();
  session_marks_.clear();
  session_retired_.clear();
  session_infeasible_ = 0;
  regranted_.clear();
  preempted_ = net::kInvalidTask;
  // Flow ids changed wholesale: rebuild the event-driven rate state from the
  // surviving committed plan (rate_fallback_ deliberately carries over).
  rate_heap_ = RateHeap();
  slice_gen_.assign(fresh.flows().size(), 0);
  rate_touched_mark_.assign(fresh.flows().size(), 0);
  rate_touched_.clear();
  for (const FlowId fid : committed_order_) touch_slices(fid);
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
  ++counters_.occupancy_trims;
  // Planning only ever reads occupancy at or after `now` and rate assignment
  // never looks backwards, so dropping the past changes nothing — it only
  // bounds memory on long arrival streams. Slices are trimmed together with
  // the map so an incremental vacate-by-slices stays exact. The last walk
  // left nothing before its `now`, and every slice granted since starts at
  // or after its own arrival's `now`: until time passes that walk, there is
  // nothing to trim.
  if (now <= last_trim_) return;
  last_trim_ = now;
  occ_.trim_before(now);
  for (auto& sl : slices_) sl.trim_before(now);
}

void TapsScheduler::on_task_arrival(TaskId id, double now) {
  if (sched::ScheduleObserver* obs = schedule_observer(); obs != nullptr) {
    obs->on_task_seen(id, now);
  }
  regranted_.clear();
  preempted_ = net::kInvalidTask;
  // Flows may be registered after bind() (SDN usage registers tasks as
  // probes arrive; Network::extend_task adds waves): grow the per-flow tables.
  const std::size_t flow_count = net_->flows().size();
  if (slices_.size() < flow_count) slices_.resize(flow_count);
  if (committed_remaining_.size() < flow_count) committed_remaining_.resize(flow_count, 0.0);
  if (committed_pos_.size() < flow_count) committed_pos_.resize(flow_count, kNoPosition);
  if (slice_gen_.size() < flow_count) {
    slice_gen_.resize(flow_count, 0);
    rate_touched_mark_.resize(flow_count, 0);
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

  // Algorithm 1's trial: every unfinished admitted flow plus the newcomers,
  // re-planned from `now` (Ftmp = Ftrans U {arriving flows}). Committed
  // entries before the watermark are unfinished, untransmitted and still in
  // EDF+SJF order, so only the entries after it are looked at: unfinished
  // ones join the wave to be sorted, and spent ones whose slices all lie in
  // the past are noted so the commit can clear them (a snapshot taken before
  // any rejection below changes flow states).
  const EdfSjf cmp{net_};
  const std::size_t w0 = watermark(now);
  session_retired_.clear();
  std::vector<FlowId> moved;
  for (std::size_t k = w0; k < committed_order_.size(); ++k) {
    const FlowId fid = committed_order_[k];
    if (unfinished(net_->flow(fid))) {
      moved.push_back(fid);
      continue;
    }
    const util::IntervalSet& sl = slices_[static_cast<std::size_t>(fid)];
    if (!sl.empty() && sl.back_end() <= now) session_retired_.push_back(fid);
  }
  moved.insert(moved.end(), wave.begin(), wave.end());
  std::sort(moved.begin(), moved.end(), cmp);
  ++(w0 == 0 ? counters_.full_sorts : counters_.incremental_sorts);

  // The trial order is the kept prefix merged with `moved`. Its entries
  // ahead of the first moved flow are exactly committed_order_[0, adopt):
  // the session adopts them as they stand and plans the rest.
  const auto prefix_end = committed_order_.begin() + static_cast<std::ptrdiff_t>(w0);
  const auto adopt_end = std::lower_bound(committed_order_.begin(), prefix_end, moved.front(), cmp);
  trial_base_ = static_cast<std::size_t>(adopt_end - committed_order_.begin());
  trial_.clear();
  std::merge(adopt_end, prefix_end, moved.begin(), moved.end(), std::back_inserter(trial_), cmp);
  assert(journal_.empty());
  open_session(trial_base_, now);
  target_ = trial_;
  plan_tail(now);
  ++counters_.replans;

  const RejectOutcome outcome =
      apply_reject_rule(*net_, id, session_plans_, config_.preempt_policy,
                        [this](TaskId task) { return adopted_flows(task); });
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
      resume_session(outcome.victim, now);
      ++counters_.replans;
      if (session_infeasible_ == 0) {
        net_->reject_task(outcome.victim);
        ++counters_.tasks_preempted;
        preempted_ = outcome.victim;
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
  reject_and_compact(id, now);
}

void TapsScheduler::reject_and_compact(TaskId id, double now) {
  net_->reject_task(id);
  ++counters_.tasks_rejected;
  if (sched::ScheduleObserver* obs = schedule_observer(); obs != nullptr) {
    obs->on_task_rejected(id, now);
  }
  // Re-plan the incumbents opportunistically: EDF with updated remaining
  // sizes usually compacts the schedule and helps future admissions.
  resume_session(id, now);
  ++counters_.replans;
  if (session_infeasible_ == 0) {
    commit_session(now);
    return;
  }
  abandon_session();
  ++counters_.replan_reverts;
  // The committed order still holds the rejected task's earlier waves,
  // which are no longer unfinished: nothing from the first of them on is
  // adoptable.
  adopt_limit_ = std::min(adopt_limit_, first_position(id));
  util::log_debug() << "TAPS: compacting re-plan at t=" << now
                    << " would strand a survivor; keeping the prior plan";
}

std::size_t TapsScheduler::watermark(double now) const {
  const auto begin = committed_min_start_.begin();
  const auto end = begin + static_cast<std::ptrdiff_t>(
                               std::min(adopt_limit_, committed_min_start_.size()));
  return static_cast<std::size_t>(
      std::partition_point(begin, end, [now](double start) { return start >= now; }) - begin);
}

std::size_t TapsScheduler::first_position(TaskId task) const {
  std::size_t first = std::numeric_limits<std::size_t>::max();
  for (const FlowId fid : net_->task(task).spec.flows) {
    const auto i = static_cast<std::size_t>(fid);
    if (i < committed_pos_.size() && committed_pos_[i] != kNoPosition) {
      first = std::min<std::size_t>(first, committed_pos_[i]);
    }
  }
  return first;
}

std::size_t TapsScheduler::adopted_flows(TaskId task) const {
  std::size_t n = 0;
  for (const FlowId fid : net_->task(task).spec.flows) {
    const auto i = static_cast<std::size_t>(fid);
    if (i < committed_pos_.size() && committed_pos_[i] < session_adopted_) ++n;
  }
  return n;
}

void TapsScheduler::open_session(std::size_t adopt, [[maybe_unused]] double now) {
  assert(journal_.empty());
  assert(adopt <= committed_order_.size());
  session_adopted_ = adopt;
  session_order_.clear();
  session_plans_.clear();
  session_marks_.clear();
  session_infeasible_ = 0;
#ifndef NDEBUG
  // The watermark's promise: an adopted entry has not transmitted since its
  // commit, so a full replan recomputes exactly its committed path and
  // slices (DESIGN.md, "Incremental replanning").
  for (std::size_t k = 0; k < adopt; ++k) {
    const FlowId fid = committed_order_[k];
    const auto i = static_cast<std::size_t>(fid);
    assert(unfinished(net_->flow(fid)));
    assert(net_->flow(fid).remaining == committed_remaining_[i]);
    assert(!slices_[i].empty() && slices_[i].front_start() >= now);
  }
#endif
  // Everything after the adopted prefix is vacated by its exact slices, so
  // the tail replans against exactly the context a full replan would see.
  for (std::size_t k = adopt; k < committed_order_.size(); ++k) {
    const FlowId fid = committed_order_[k];
    const util::IntervalSet& sl = slices_[static_cast<std::size_t>(fid)];
    if (!sl.empty()) occ_.vacate(net_->flow(fid).path, sl, journal_);
  }
  counters_.cross_arrival_reuse_flows += adopt;
}

void TapsScheduler::plan_tail(double now) {
  const PlanConfig plan_config{.max_paths = config_.max_paths,
                               .ecmp_routing = config_.ecmp_routing,
                               .guard_band = config_.guard_band};
  for (std::size_t k = session_order_.size(); k < target_.size(); ++k) {
    const FlowId fid = target_[k];
    session_marks_.push_back(OccupancyMap::checkpoint(journal_));
    FlowPlan plan = plan_one_flow(*net_, occ_, fid, now, plan_config, &plan_scratch_);
    ++counters_.flows_planned;
    counters_.paths_evaluated += plan.paths_evaluated;
    if (plan.feasible) {
      occ_.occupy(plan.path, plan.slices, &journal_);
    } else {
      ++session_infeasible_;
    }
    session_order_.push_back(fid);
    session_plans_.push_back(std::move(plan));
  }
}

void TapsScheduler::resume_session(TaskId removed, double now) {
  // The new target is the trial without `removed`'s flows. Every flow
  // before `removed`'s first committed position is shared with it, so the
  // target is rebuilt from there (or from the adopted prefix's end).
  const std::size_t first = first_position(removed);
  const std::size_t base = std::min(first, session_adopted_);
  const auto kept = [this, removed](FlowId fid) { return net_->flow(fid).task() != removed; };
  target_.clear();
  for (std::size_t k = base; k < trial_base_; ++k) {
    if (kept(committed_order_[k])) target_.push_back(committed_order_[k]);
  }
  std::copy_if(trial_.begin(), trial_.end(), std::back_inserter(target_), kept);
  if (first < session_adopted_) {
    // `removed` owns an adopted flow (e.g. the preemption victim). Rolling
    // the journal back cannot un-adopt an entry — adopted occupancy
    // predates the session — so restore the committed state wholesale and
    // re-open with the prefix ahead of that flow.
    ++counters_.session_restarts;
    abandon_session();
    open_session(first, now);
  } else {
    std::size_t p = 0;
    while (p < session_order_.size() && p < target_.size() && session_order_[p] == target_[p]) {
      ++p;
    }
    if (p < session_order_.size()) {
      occ_.rollback(journal_, session_marks_[p]);
      for (std::size_t k = p; k < session_plans_.size(); ++k) {
        if (!session_plans_[k].feasible) --session_infeasible_;
      }
      session_order_.resize(p);
      session_marks_.resize(p);
      session_plans_.resize(p);
    }
    counters_.checkpoint_reuse_flows += session_adopted_ + p;
  }
  plan_tail(now);
}

void TapsScheduler::commit_session(double now) {
  assert(session_infeasible_ == 0);
  for (const FlowId fid : session_retired_) {
    slices_[static_cast<std::size_t>(fid)].clear();
    touch_slices(fid);
  }
  session_retired_.clear();
  // The adopted prefix stays as it is; the order is rewritten from its end.
  const std::size_t adopted = session_adopted_;
  for (std::size_t k = adopted; k < committed_order_.size(); ++k) {
    committed_pos_[static_cast<std::size_t>(committed_order_[k])] = kNoPosition;
  }
  committed_order_.resize(adopted);
  committed_min_start_.resize(adopted);
  sched::ScheduleObserver* obs = schedule_observer();
  std::vector<sched::CommittedFlowView> view;
  if (obs != nullptr) {
    view.reserve(adopted + session_order_.size());
    for (const FlowId fid : committed_order_) {
      Flow& f = net_->flow(fid);
      view.push_back({fid, f.task(), false, &f.path, &slices_[static_cast<std::size_t>(fid)]});
    }
  }
  double min_start = adopted == 0 ? sim::kInfinity : committed_min_start_.back();
  for (std::size_t k = 0; k < session_order_.size(); ++k) {
    const FlowId fid = session_order_[k];
    const auto i = static_cast<std::size_t>(fid);
    Flow& f = net_->flow(fid);
    FlowPlan& plan = session_plans_[k];
    // Adopted entries are, by construction, exactly what a full replan
    // would have reproduced verbatim — so comparing only the replanned tail
    // flags the same re-grant set as a full replan's commit.
    const bool regranted = f.path.links != plan.path.links || slices_[i] != plan.slices;
    if (regranted) {
      ++counters_.slice_grants;
      touch_slices(fid);
      regranted_.push_back(fid);
    }
    f.path = std::move(plan.path);
    slices_[i] = std::move(plan.slices);
    committed_pos_[i] = static_cast<std::uint32_t>(committed_order_.size());
    committed_order_.push_back(fid);
    committed_remaining_[i] = f.remaining;
    // An entry without bytes worth planning is never adoptable.
    const util::IntervalSet& sl = slices_[i];
    min_start = std::min(min_start, unfinished(f) && !sl.empty() ? sl.front_start()
                                                                 : -sim::kInfinity);
    committed_min_start_.push_back(min_start);
    if (obs != nullptr) view.push_back({fid, f.task(), regranted, &f.path, &sl});
  }
  ++counters_.plan_commits;
  // occ_ already holds exactly the committed occupancy; the journal's undo
  // history is no longer needed.
  journal_.clear();
  adopt_limit_ = committed_order_.size();
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
    const net::Task& t = net_->task(f.task());
    for (const FlowId sibling : t.spec.flows) {
      const Flow& s = net_->flow(sibling);
      const auto i = static_cast<std::size_t>(sibling);
      if (i < committed_pos_.size() && committed_pos_[i] != kNoPosition && !s.finished()) {
        occ_.vacate(s.path, slices_[i], journal_);
      }
    }
    journal_.clear();
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
    adopt_limit_ = 0;
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
