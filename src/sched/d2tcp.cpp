#include "sched/d2tcp.hpp"

#include <algorithm>

namespace taps::sched {

using net::Flow;
using net::FlowId;

void D2Tcp::bind(net::Network& net) {
  BaseScheduler::bind(net);
  weights_.assign(net.flows().size(), 1.0);
}

void D2Tcp::on_task_arrival(net::TaskId id, double now) {
  admit_all_ecmp(id, now);
  if (weights_.size() < net_->flows().size()) weights_.resize(net_->flows().size(), 1.0);
}

double D2Tcp::assign_rates(double now) {
  auto& flows = active_flows();
  for (const auto& l : net_->graph().links()) {
    residual_[static_cast<std::size_t>(l.id)] = l.capacity;
  }

  // Urgency d = Tc / D: completion time at the flow's current throughput
  // over its time-to-deadline (the rate it held until this event is the
  // fluid analogue of the throughput D2TCP's window dynamics measured).
  for (const FlowId fid : flows) {
    Flow& f = net_->flow(fid);
    const double ttd = f.time_to_deadline(now);
    double d;
    if (ttd <= sim::kTimeEpsilon) {
      d = config_.max_urgency;  // past-due (simulator settles it at deadline)
    } else {
      double throughput = f.rate;
      if (throughput <= 0.0) {
        // No history yet (just admitted or previously starved): seed with
        // the full path rate, the most optimistic estimate.
        throughput = sim::kInfinity;
        for (const topo::LinkId lid : f.path.links) {
          throughput = std::min(throughput, net_->link_capacity(lid));
        }
      }
      d = (f.remaining / throughput) / ttd;
    }
    weights_[static_cast<std::size_t>(fid)] =
        std::clamp(d, config_.min_urgency, config_.max_urgency);
    f.set_rate(0.0);
  }

  progressive_fill(flows, residual_, &weights_);
  // Re-adapt urgencies one "RTT" from now while anything is in flight.
  return flows.empty() ? sim::kInfinity : now + config_.update_interval;
}

}  // namespace taps::sched
