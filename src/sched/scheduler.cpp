#include "sched/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "util/rng.hpp"

namespace taps::sched {

using net::Flow;
using net::FlowId;
using net::FlowState;
using net::TaskId;
using net::TaskState;

namespace {

[[maybe_unused]] bool all_distinct(std::vector<FlowId> ids) {
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

}  // namespace

void BaseScheduler::bind(net::Network& net) {
  sim::Scheduler::bind(net);
  active_.clear();
  residual_.assign(net.graph().link_count(), 0.0);
  fill_.link_weight.assign(net.graph().link_count(), 0.0);
  fill_.link_begin.assign(net.graph().link_count(), 0);
  fill_.link_end.assign(net.graph().link_count(), 0);
  fill_.link_saturated.assign(net.graph().link_count(), 0);
}

void BaseScheduler::on_flow_finished(net::FlowId /*id*/, double /*now*/) {
  // Finished flows are pruned lazily by active_flows() at the next
  // assign_rates call; an eager std::erase here is O(active) per completion
  // (O(n^2) over a run) and bought nothing the prune doesn't.
}

std::vector<FlowId> BaseScheduler::pending_wave(TaskId id, double now) const {
  std::vector<FlowId> wave;
  wave.reserve(net_->task(id).spec.flows.size());
  for (const FlowId fid : net_->task(id).spec.flows) {
    const Flow& f = net_->flow(fid);
    if (f.state == FlowState::kPending && f.spec.arrival <= now + sim::kTimeEpsilon) {
      wave.push_back(fid);
    }
  }
  return wave;
}

void BaseScheduler::admit_all_ecmp(TaskId id, double now) {
  net::Task& t = net_->task(id);
  const std::vector<FlowId> wave = pending_wave(id, now);
  if (t.state == TaskState::kRejected) {
    // The whole task was declined earlier; its later waves never transmit.
    for (const FlowId fid : wave) net_->flow(fid).state = FlowState::kRejected;
    return;
  }
  if (t.state == TaskState::kPending) t.state = TaskState::kAdmitted;
  for (const FlowId fid : wave) {
    Flow& f = net_->flow(fid);
    route_ecmp(f);
    f.state = FlowState::kActive;
    active_.push_back(fid);
  }
}

void BaseScheduler::route_ecmp(Flow& f) {
  const auto candidates = net_->topology().paths(f.spec.src, f.spec.dst, max_paths_);
  assert(!candidates.empty());
  const std::uint64_t h = util::hash_combine(static_cast<std::uint64_t>(f.id()) + 1,
                                             0x9d2c5680u ^ static_cast<std::uint64_t>(f.spec.src));
  f.path = topo::pick_ecmp(candidates, h);
}

std::vector<FlowId>& BaseScheduler::active_flows() {
  std::erase_if(active_, [this](FlowId id) { return net_->flow(id).finished(); });
  return active_;
}

void BaseScheduler::progressive_fill(const std::vector<FlowId>& flows,
                                     std::vector<double>& residual,
                                     const std::vector<double>* weights) {
  // Water-filling: raise every unfrozen flow's rate by unit x weight until a
  // link saturates; freeze the flows crossing it; repeat. Every floating-point
  // operation of the reference loops (progressive_fill_reference) happens
  // here too, per link and per flow in the same order, so the results are
  // bitwise equal (DESIGN.md §7); only the walks over Flow views are gone.
  constexpr double kEps = 1e-9;
  assert(all_distinct(flows));
  FillScratch& s = fill_;
  s.flow.clear();
  s.weight.clear();
  s.rate.clear();
  s.path.clear();
  s.path_begin.assign(1, 0);
  s.used.clear();
  for (const FlowId fid : flows) {
    const Flow& f = net_->flow(fid);
    if (f.finished() || f.remaining <= sim::kByteEpsilon) continue;
    const double w = weights != nullptr ? (*weights)[static_cast<std::size_t>(fid)] : 1.0;
    if (w <= 0.0) continue;
    s.flow.push_back(fid);
    s.weight.push_back(w);
    s.rate.push_back(f.rate);
    for (const topo::LinkId lid : f.path.links) {
      const auto i = static_cast<std::size_t>(lid);
      if (s.link_weight[i] == 0.0) s.used.push_back(lid);
      s.link_weight[i] += w;
      ++s.link_end[i];  // member count for now
      s.path.push_back(lid);
    }
    s.path_begin.push_back(static_cast<std::uint32_t>(s.path.size()));
  }
  const std::size_t n = s.flow.size();
  const auto links_of = [&s](std::size_t k) {
    return std::span(s.path).subspan(s.path_begin[k], s.path_begin[k + 1] - s.path_begin[k]);
  };
  // Each used link's members (fill flows, in call order) as one range of
  // `members`: turn the counts into ranges, then place flow by flow.
  std::uint32_t next = 0;
  for (const topo::LinkId lid : s.used) {
    const auto i = static_cast<std::size_t>(lid);
    const std::uint32_t count = s.link_end[i];
    s.link_begin[i] = s.link_end[i] = next;
    next += count;
  }
  s.members.resize(s.path.size());
  for (std::size_t k = 0; k < n; ++k) {
    for (const topo::LinkId lid : links_of(k)) {
      s.members[s.link_end[static_cast<std::size_t>(lid)]++] = static_cast<std::uint32_t>(k);
    }
  }

  s.alive.resize(n);
  for (std::size_t k = 0; k < n; ++k) s.alive[k] = static_cast<std::uint32_t>(k);
  s.frozen.assign(n, 0);
  s.scan = s.used;
  while (!s.alive.empty()) {
    // Smallest per-unit-weight increment that saturates some link. A link
    // whose weight fell to <= 0 leaves the scan for good: weights only fall.
    double unit = sim::kInfinity;
    std::size_t kept = 0;
    for (const topo::LinkId lid : s.scan) {
      const auto i = static_cast<std::size_t>(lid);
      if (s.link_weight[i] > 0.0) {
        unit = std::min(unit, residual[i] / s.link_weight[i]);
        s.scan[kept++] = lid;
      }
    }
    s.scan.resize(kept);
    if (unit == sim::kInfinity) break;
    unit = std::max(unit, 0.0);

    // Debit flow by flow. A residual only falls within a round and every
    // link of an unfrozen flow is debited, so the links at <= kEps after some
    // debit are exactly those at <= kEps when the round ends.
    for (const std::uint32_t k : s.alive) {
      const double inc = unit * s.weight[k];
      s.rate[k] += inc;
      for (const topo::LinkId lid : links_of(k)) {
        const auto i = static_cast<std::size_t>(lid);
        residual[i] -= inc;
        if (residual[i] <= kEps && s.link_saturated[i] == 0) {
          s.link_saturated[i] = 1;
          s.saturated.push_back(lid);
        }
      }
    }
    // Every saturated link has an unfrozen member (the flow that debited
    // it), so no saturated link means no flow freezes: the numerical guard.
    if (s.saturated.empty()) break;
    for (const topo::LinkId lid : s.saturated) {
      const auto i = static_cast<std::size_t>(lid);
      s.link_saturated[i] = 0;
      for (std::uint32_t m = s.link_begin[i]; m < s.link_end[i]; ++m) s.frozen[s.members[m]] = 1;
    }
    s.saturated.clear();
    // Lower the weights of the newly frozen flows in call order: for
    // non-integer weights the order of the subtractions shows in the result.
    kept = 0;
    for (const std::uint32_t k : s.alive) {
      if (s.frozen[k] == 0) {
        s.alive[kept++] = k;
        continue;
      }
      for (const topo::LinkId lid : links_of(k)) {
        s.link_weight[static_cast<std::size_t>(lid)] -= s.weight[k];
      }
    }
    s.alive.resize(kept);
  }
  for (const topo::LinkId lid : s.used) {
    s.link_weight[static_cast<std::size_t>(lid)] = 0.0;
    s.link_end[static_cast<std::size_t>(lid)] = 0;
  }
  // Rates only rise, so a flow's rate changed in some round exactly when its
  // final rate differs from its first: one write gives the same dirty set.
  net::FlowStateArena& arena = net_->flow_state();
  for (std::size_t k = 0; k < n; ++k) {
    arena.set_rate(static_cast<std::size_t>(s.flow[k]), s.rate[k]);
  }
}

}  // namespace taps::sched
