#include "svc/shard.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
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

void Shard::advance_to(double t) {
  assert(t + sim::kTimeEpsilon >= clock_);
  if (t < clock_) return;
  // Completions: under the fluid contract an admitted TAPS flow transmits
  // exactly inside its pre-allocated slices, so it completes when its last
  // slice ends. Deliver completions in (time, id) order — the same order a
  // discrete-event simulator would — so scheduler bookkeeping stays
  // deterministic.
  std::vector<std::pair<double, FlowId>> done;
  std::size_t keep = 0;
  for (const FlowId fid : live_flows_) {
    const Flow& f = net_->flow(fid);
    if (f.finished()) continue;  // preempted since the last advance
    const auto& sl = sched_.slices(fid);
    if (!sl.empty() && sl.back_end() <= t) {
      done.emplace_back(sl.back_end(), fid);
      continue;
    }
    live_flows_[keep++] = fid;
  }
  live_flows_.resize(keep);
  std::sort(done.begin(), done.end());
  for (const auto& [at, fid] : done) {
    net_->on_flow_completed(fid, at);
    sched_.on_flow_finished(fid, at);
    ++completed_;
  }
  // Partial progress: `remaining` is the untransmitted slice mass. Flows
  // with no elapsed mass are left untouched so their remaining stays
  // bitwise equal to the committed value — the scheduler's cross-arrival
  // prefix reuse is gated on exactly that comparison.
  const double capacity = net_->capacity();
  for (const FlowId fid : live_flows_) {
    Flow& f = net_->flow(fid);
    const auto& sl = sched_.slices(fid);
    if (sl.empty() || sl.front_start() >= t) continue;
    f.remaining = capacity * sl.overlap_measure(t, sim::kInfinity);
    f.bytes_sent = f.spec.size - f.remaining;
  }
  if (!done.empty()) {
    std::erase_if(live_tasks_, [&](TaskId id) { return net_->task(id).finished(); });
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

  const std::size_t preempted_before = sched_.counters().tasks_preempted;
  sched_.on_task_arrival(local, request.arrival);
  ++processed_;

  TaskResponse resp;
  resp.seq = seq;
  resp.client_tag = request.client_tag;

  // A preemption revokes exactly one previously-admitted task (the reject
  // rule's single victim): find it among the live tasks by its new
  // kRejected state and report its submission seq.
  if (sched_.counters().tasks_preempted != preempted_before) {
    for (const TaskId tid : live_tasks_) {
      if (net_->task(tid).state == net::TaskState::kRejected) {
        resp.preempted.push_back(task_seq_[static_cast<std::size_t>(tid)]);
        ++preempted_;
      }
    }
    std::erase_if(live_tasks_, [&](TaskId id) { return net_->task(id).finished(); });
    std::erase_if(live_flows_, [&](FlowId id) { return net_->flow(id).finished(); });
  }

  const Task& t = net_->task(local);
  if (t.state == net::TaskState::kAdmitted) {
    resp.reason = Reason::kAccepted;
    ++accepted_;
    live_tasks_.push_back(local);
    resp.grants.reserve(t.spec.flows.size());
    for (const FlowId fid : t.spec.flows) {
      live_flows_.push_back(fid);
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
  std::vector<TaskId> live_tasks;
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
    live_tasks.push_back(nid);
  }
  std::vector<FlowId> live_flows;
  live_flows.reserve(live_flows_.size());
  for (const FlowId fid : live_flows_) {
    if (net_->flow(fid).finished()) continue;
    assert(flow_map[static_cast<std::size_t>(fid)] != net::kInvalidFlow);
    live_flows.push_back(flow_map[static_cast<std::size_t>(fid)]);
  }
  sched_.migrate(*fresh, flow_map);
  net_ = std::move(fresh);
  task_seq_ = std::move(task_seq);
  live_tasks_ = std::move(live_tasks);
  live_flows_ = std::move(live_flows);
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
  s.live_tasks = live_tasks_.size();
  s.live_flows = live_flows_.size();
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
  for (const FlowId fid : live_flows_) {
    const Flow& f = net_->flow(fid);
    os << "flow " << task_seq_[static_cast<std::size_t>(f.task())] << " " << f.remaining << " p";
    for (const topo::LinkId l : f.path.links) os << " " << l;
    os << " s";
    for (const util::Interval& iv : sched_.slices(fid).intervals()) {
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
  // misaccounting (flow sizes are megabytes).
  constexpr double kByteSlack = 1e-3;
  std::ostringstream err;
  if (processed_ != accepted_ + rejected_) {
    err << "counter drift: processed " << processed_ << " != accepted " << accepted_
        << " + rejected " << rejected_;
    return err.str();
  }
  const core::OccupancyMap& occ = sched_.occupancy();
  std::vector<std::vector<util::Interval>> per_link(net_->graph().link_count());
  const double capacity = net_->capacity();
  for (const TaskId tid : live_tasks_) {
    if (net_->task(tid).state != net::TaskState::kAdmitted) {
      err << "live task seq " << task_seq_[static_cast<std::size_t>(tid)] << " not admitted";
      return err.str();
    }
  }
  for (const FlowId fid : live_flows_) {
    const Flow& f = net_->flow(fid);
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
    if (sl.back_end() > f.spec.deadline + sim::kTimeEpsilon) {
      err << "task seq " << seq << ": slices end " << sl.back_end() << " after deadline "
          << f.spec.deadline;
      return err.str();
    }
    if (sl.front_start() < f.spec.arrival - sim::kTimeEpsilon) {
      err << "task seq " << seq << ": slices start before arrival";
      return err.str();
    }
    const double planned = capacity * sl.overlap_measure(clock_, sim::kInfinity);
    if (planned < f.remaining - kByteSlack || planned > f.remaining + kByteSlack) {
      err << "task seq " << seq << ": future slices carry " << planned << " bytes, remaining "
          << f.remaining;
      return err.str();
    }
    for (const topo::LinkId l : f.path.links) {
      for (const util::Interval& iv : sl.intervals()) {
        if (occ.link(l).overlap_measure(iv.lo, iv.hi) < iv.length() - sim::kTimeEpsilon) {
          err << "task seq " << seq << ": slice not backed by occupancy on link " << l;
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
      if (ivs[i].lo < ivs[i - 1].hi - sim::kTimeEpsilon) {
        err << "exclusive-use violation on link " << l << ": [" << ivs[i - 1].lo << ","
            << ivs[i - 1].hi << ") overlaps [" << ivs[i].lo << "," << ivs[i].hi << ")";
        return err.str();
      }
    }
  }
  return std::nullopt;
}

}  // namespace taps::svc
