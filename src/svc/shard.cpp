#include "svc/shard.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <utility>

#include "sim/simulator.hpp"

namespace taps::svc {

using net::Flow;
using net::FlowId;
using net::Task;
using net::TaskId;

Shard::Shard(const topo::Topology& topology, const ShardConfig& config)
    : topo_(&topology), config_(config), net_(std::make_unique<net::Network>(topology)),
      sched_(config.taps) {
  sched_.bind(*net_);
}

bool Shard::live(const Flow& f) const {
  return !f.finished() && net_->task(f.task()).state == net::TaskState::kAdmitted;
}

void Shard::track(FlowId fid) {
  const util::IntervalSet& sl = sched_.slices(fid);
  if (sl.empty()) return;
  const auto i = static_cast<std::size_t>(fid);
  if (sl.back_end() != queued_end_[i]) {
    queued_end_[i] = sl.back_end();
    ends_.push_back(SliceEvent{sl.back_end(), fid});
    std::push_heap(ends_.begin(), ends_.end(), SliceEventAfter{});
  }
  // A queued start earlier than the flow's real one only makes it join
  // started_ early, where its start is checked again.
  if (sl.front_start() < queued_start_[i]) {
    queued_start_[i] = sl.front_start();
    starts_.push_back(SliceEvent{sl.front_start(), fid});
    std::push_heap(starts_.begin(), starts_.end(), SliceEventAfter{});
  }
  if (ends_.size() + starts_.size() > prune_at_) prune();
}

void Shard::prune() {
  const auto stale = [this](const std::vector<double>& queued) {
    return [this, &queued](const SliceEvent& e) {
      return net_->flow(e.fid).finished() || queued[static_cast<std::size_t>(e.fid)] != e.time;
    };
  };
  std::erase_if(ends_, stale(queued_end_));
  std::make_heap(ends_.begin(), ends_.end(), SliceEventAfter{});
  std::erase_if(starts_, stale(queued_start_));
  std::make_heap(starts_.begin(), starts_.end(), SliceEventAfter{});
  constexpr std::size_t kMinPrune = 64;
  prune_at_ = 2 * std::max(ends_.size() + starts_.size(), kMinPrune);
}

void Shard::advance_to(double t) {
  assert(t + sim::kTimeEpsilon >= clock_);
  if (t < clock_) return;
  // Completions: under the fluid contract an admitted TAPS flow transmits
  // exactly inside its pre-allocated slices, so it completes when its last
  // slice ends. Deliver completions in (time, id) order — the same order a
  // discrete-event simulator would — so scheduler bookkeeping stays
  // deterministic. The heap yields them in that order; all are collected
  // before any is delivered.
  done_.clear();
  while (!ends_.empty() && ends_.front().time <= t) {
    std::pop_heap(ends_.begin(), ends_.end(), SliceEventAfter{});
    const SliceEvent e = ends_.back();
    ends_.pop_back();
    double& queued = queued_end_[static_cast<std::size_t>(e.fid)];
    if (net_->flow(e.fid).finished() || queued != e.time) continue;
    queued = -sim::kInfinity;  // an equal duplicate entry no longer matches
    done_.push_back(e);
  }
  for (const SliceEvent& e : done_) {
    assert(sched_.slices(e.fid).back_end() == e.time);
    net_->on_flow_completed(e.fid, e.time);
    sched_.on_flow_finished(e.fid, e.time);
    ++completed_;
  }
  // Partial progress: `remaining` is the untransmitted slice mass. Only
  // flows whose first slice began before `t` are touched, so every other
  // flow's remaining stays bitwise equal to the committed value — what the
  // scheduler's watermark relies on.
  while (!starts_.empty() && starts_.front().time < t) {
    std::pop_heap(starts_.begin(), starts_.end(), SliceEventAfter{});
    const SliceEvent e = starts_.back();
    starts_.pop_back();
    double& queued = queued_start_[static_cast<std::size_t>(e.fid)];
    if (net_->flow(e.fid).finished() || queued != e.time) continue;
    queued = -sim::kInfinity;
    started_.push_back(e.fid);
  }
  const double capacity = net_->capacity();
  std::erase_if(started_, [this](FlowId fid) { return net_->flow(fid).finished(); });
  for (const FlowId fid : started_) {
    Flow& f = net_->flow(fid);
    const auto& sl = sched_.slices(fid);
    // A re-grant or a trim can move a started flow's first slice past `t`.
    if (sl.front_start() >= t) continue;
    f.remaining = capacity * sl.overlap_measure(t, sim::kInfinity);
    f.bytes_sent = f.spec.size - f.remaining;
  }
  clock_ = t;
}

TaskResponse Shard::process(Seq seq, const TaskRequest& request) {
  advance_to(request.arrival);
  maybe_compact();

  std::vector<net::FlowSpec> specs;
  specs.reserve(request.flows.size());
  for (const FlowRequest& fr : request.flows) {
    net::FlowSpec s;
    s.src = fr.src;
    s.dst = fr.dst;
    s.size = fr.size;
    s.arrival = request.arrival;
    s.deadline = request.deadline;
    specs.push_back(s);
  }
  const TaskId local = net_->add_task(request.arrival, request.deadline, specs);
  assert(static_cast<std::size_t>(local) == task_seq_.size());
  task_seq_.push_back(seq);
  queued_end_.resize(net_->flows().size(), -sim::kInfinity);
  queued_start_.resize(net_->flows().size(), sim::kInfinity);

  sched_.on_task_arrival(local, request.arrival);
  ++processed_;
  for (const FlowId fid : sched_.regranted()) track(fid);

  TaskResponse resp;
  resp.seq = seq;
  resp.client_tag = request.client_tag;

  // A preemption revokes exactly one previously-admitted task (the reject
  // rule's single victim): report its submission seq.
  if (const TaskId victim = sched_.preempted(); victim != net::kInvalidTask) {
    resp.preempted.push_back(task_seq_[static_cast<std::size_t>(victim)]);
    ++preempted_;
  }

  const Task& t = net_->task(local);
  if (t.state == net::TaskState::kAdmitted) {
    resp.reason = Reason::kAccepted;
    ++accepted_;
    resp.grants.reserve(t.spec.flows.size());
    for (const FlowId fid : t.spec.flows) {
      resp.grants.push_back(FlowGrant{net_->flow(fid).path, sched_.slices(fid)});
    }
  } else {
    resp.reason = Reason::kPlannerReject;
    ++rejected_;
  }
  return resp;
}

void Shard::maybe_compact() {
  if (config_.compact_interval == 0) return;
  if (++arrivals_since_compact_ < config_.compact_interval) return;
  arrivals_since_compact_ = 0;
  // Rebuild the registry keeping only unfinished tasks, in their original
  // relative order. The old->new flow-id map is order-isomorphic on the
  // kept flows, so every EDF+SJF tie-break in the migrated scheduler
  // compares identically and decisions are bit-for-bit unchanged (see
  // TapsScheduler::migrate).
  auto fresh = std::make_unique<net::Network>(*topo_);
  std::vector<FlowId> flow_map(net_->flows().size(), net::kInvalidFlow);
  std::vector<Seq> task_seq;
  std::vector<net::FlowSpec> specs;
  for (const Task& t : net_->tasks()) {
    if (t.finished()) continue;
    specs.clear();
    specs.reserve(t.spec.flows.size());
    for (const FlowId fid : t.spec.flows) specs.push_back(net_->flow(fid).spec);
    const TaskId nid = fresh->add_task(t.spec.arrival, t.spec.deadline, specs);
    Task& nt = fresh->task(nid);
    nt.state = t.state;
    nt.completed_flows = t.completed_flows;
    for (std::size_t k = 0; k < t.spec.flows.size(); ++k) {
      const Flow& of = net_->flow(t.spec.flows[k]);
      Flow& nf = fresh->flow(nt.spec.flows[k]);
      nf.state = of.state;
      nf.remaining = of.remaining;
      nf.set_rate(of.rate);
      nf.bytes_sent = of.bytes_sent;
      nf.completion_time = of.completion_time;
      nf.path = of.path;
      flow_map[static_cast<std::size_t>(of.id())] = nf.id();
    }
    task_seq.push_back(task_seq_[static_cast<std::size_t>(t.id())]);
  }
  sched_.migrate(*fresh, flow_map);
  net_ = std::move(fresh);
  task_seq_ = std::move(task_seq);
  // Flow ids changed: queue every live flow's slices afresh.
  ends_.clear();
  starts_.clear();
  started_.clear();
  queued_end_.assign(net_->flows().size(), -sim::kInfinity);
  queued_start_.assign(net_->flows().size(), sim::kInfinity);
  for (const Flow& f : net_->flows()) {
    if (live(f)) track(f.id());
  }
  ++compactions_;
}

ShardStats Shard::stats() const {
  ShardStats s;
  s.processed = processed_;
  s.accepted = accepted_;
  s.rejected = rejected_;
  s.preempted = preempted_;
  s.completed = completed_;
  s.compactions = compactions_;
  for (const Task& t : net_->tasks()) {
    if (t.state == net::TaskState::kAdmitted) ++s.live_tasks;
  }
  for (const Flow& f : net_->flows()) {
    if (live(f)) ++s.live_flows;
  }
  s.registered_tasks = net_->tasks().size();
  s.registered_flows = net_->flows().size();
  s.clock = clock_;
  s.taps = sched_.counters();
  return s;
}

std::string Shard::fingerprint() const {
  std::ostringstream os;
  os << std::hexfloat;
  os << "clock " << clock_ << "\n";
  os << "counts " << processed_ << " " << accepted_ << " " << rejected_ << " " << preempted_
     << " " << completed_ << "\n";
  // Planner-effort counters (TapsCounters) are deliberately absent: they
  // measure work done, not state reached, and legitimately differ across
  // batching, compaction and trim cadences while the committed schedule
  // below stays bit-identical.
  for (const Task& t : net_->tasks()) {
    os << "task " << task_seq_[static_cast<std::size_t>(t.id())] << " "
       << static_cast<int>(t.state) << " " << t.completed_flows << "\n";
  }
  for (const Flow& f : net_->flows()) {
    if (!live(f)) continue;
    os << "flow " << task_seq_[static_cast<std::size_t>(f.task())] << " " << f.remaining << " p";
    for (const topo::LinkId l : f.path.links) os << " " << l;
    os << " s";
    for (const util::Interval& iv : sched_.slices(f.id()).intervals()) {
      os << " [" << iv.lo << "," << iv.hi << ")";
    }
    os << "\n";
  }
  const core::OccupancyMap& occ = sched_.occupancy();
  for (std::size_t l = 0; l < occ.link_count(); ++l) {
    const util::IntervalSet& busy = occ.link(static_cast<topo::LinkId>(l));
    if (busy.empty()) continue;
    os << "link " << l;
    for (const util::Interval& iv : busy.intervals()) os << " [" << iv.lo << "," << iv.hi << ")";
    os << "\n";
  }
  return os.str();
}

std::optional<std::string> Shard::audit() const {
  // Absolute slack for double sums over slice endpoints scaled by link
  // capacity (~1e9): generous against ulp accumulation, far below any real
  // misaccounting (flow sizes are megabytes). Only the byte check needs it:
  // the planner writes slice endpoints exactly, so everything else is
  // compared exactly.
  constexpr double kByteSlack = 1e-3;
  std::ostringstream err;
  err << std::setprecision(17);
  if (processed_ != accepted_ + rejected_) {
    err << "counter drift: processed " << processed_ << " != accepted " << accepted_
        << " + rejected " << rejected_;
    return err.str();
  }
  const core::OccupancyMap& occ = sched_.occupancy();
  std::vector<std::vector<util::Interval>> per_link(net_->graph().link_count());
  const double capacity = net_->capacity();
  for (const Flow& f : net_->flows()) {
    if (!live(f)) continue;
    const FlowId fid = f.id();
    const Seq seq = task_seq_[static_cast<std::size_t>(f.task())];
    const util::IntervalSet& sl = sched_.slices(fid);
    if (!f.active()) {
      err << "live flow of task seq " << seq << " not active";
      return err.str();
    }
    if (sl.empty() || !sl.check_invariants()) {
      err << "task seq " << seq << ": empty or non-canonical slices";
      return err.str();
    }
    if (sl.back_end() > f.spec.deadline) {
      err << "task seq " << seq << ": slices end " << sl.back_end() << " after deadline "
          << f.spec.deadline;
      return err.str();
    }
    if (sl.front_start() < f.spec.arrival) {
      err << "task seq " << seq << ": slices start " << sl.front_start() << " before arrival "
          << f.spec.arrival;
      return err.str();
    }
    const double planned = capacity * sl.overlap_measure(clock_, sim::kInfinity);
    if (planned < f.remaining - kByteSlack || planned > f.remaining + kByteSlack) {
      err << "task seq " << seq << ": future slices carry " << planned << " bytes, remaining "
          << f.remaining;
      return err.str();
    }
    for (const topo::LinkId l : f.path.links) {
      const std::vector<util::Interval>& busy = occ.link(l).intervals();
      for (const util::Interval& iv : sl.intervals()) {
        // Backed: the slice lies inside one interval of the link's canonical
        // occupancy (the last one starting at or before it).
        const auto it = std::upper_bound(busy.begin(), busy.end(), iv.lo,
                                         [](double v, const util::Interval& b) { return v < b.lo; });
        if (it == busy.begin() || std::prev(it)->hi < iv.hi) {
          err << "task seq " << seq << ": slice [" << iv.lo << "," << iv.hi
              << ") not backed by occupancy on link " << l;
          return err.str();
        }
        per_link[static_cast<std::size_t>(l)].push_back(iv);
      }
    }
  }
  // Exclusive use: at most one live flow per link at any instant.
  for (std::size_t l = 0; l < per_link.size(); ++l) {
    auto& ivs = per_link[l];
    std::sort(ivs.begin(), ivs.end(),
              [](const util::Interval& a, const util::Interval& b) { return a.lo < b.lo; });
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i].lo < ivs[i - 1].hi) {
        err << "exclusive-use violation on link " << l << ": [" << ivs[i - 1].lo << ","
            << ivs[i - 1].hi << ") overlaps [" << ivs[i].lo << "," << ivs[i].hi << ")";
        return err.str();
      }
    }
  }
  return std::nullopt;
}

}  // namespace taps::svc
