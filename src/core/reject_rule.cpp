#include "core/reject_rule.hpp"

namespace taps::core {

const char* to_string(Decision d) {
  switch (d) {
    case Decision::kAccept:
      return "accept";
    case Decision::kRejectNew:
      return "reject-new";
    case Decision::kPreemptVictim:
      return "preempt-victim";
  }
  return "?";
}

namespace {

/// Fraction of `task`'s flows that are completed or trial-feasible.
double schedulable_ratio(const net::Network& net, net::TaskId task,
                         std::span<const FlowPlan> trial,
                         const std::function<std::size_t(net::TaskId)>& adopted) {
  const net::Task& t = net.task(task);
  if (t.spec.flows.empty()) return 0.0;
  std::size_t good = t.completed_flows + (adopted ? adopted(task) : 0);
  for (const FlowPlan& plan : trial) {
    if (plan.feasible && net.flow(plan.flow).task() == task) ++good;
  }
  return static_cast<double>(good) / static_cast<double>(t.flow_count());
}

}  // namespace

RejectOutcome apply_reject_rule(const net::Network& net, net::TaskId new_task,
                                std::span<const FlowPlan> trial, PreemptPolicy policy,
                                const std::function<std::size_t(net::TaskId)>& adopted) {
  net::TaskId missing_task = net::kInvalidTask;
  bool multiple_missing_tasks = false;
  bool new_task_missing = false;

  for (const FlowPlan& plan : trial) {
    if (plan.feasible) continue;
    const net::TaskId t = net.flow(plan.flow).task();
    if (t == new_task) new_task_missing = true;
    if (missing_task == net::kInvalidTask) {
      missing_task = t;
    } else if (missing_task != t) {
      multiple_missing_tasks = true;
    }
  }

  if (missing_task == net::kInvalidTask) return {Decision::kAccept, net::kInvalidTask};
  // Rule 1: more than one task would miss deadlines -> reject the newcomer.
  if (multiple_missing_tasks) return {Decision::kRejectNew, net::kInvalidTask};
  // Rule 2: the new task itself cannot be fully scheduled -> reject it.
  if (new_task_missing) return {Decision::kRejectNew, net::kInvalidTask};
  // Rule 3: exactly one other task misses. Preempt it only if its completion
  // ratio is strictly below the new task's (see PreemptPolicy).
  double victim_ratio = 0.0;
  double new_ratio = 0.0;
  switch (policy) {
    case PreemptPolicy::kProgress:
      victim_ratio = net.task(missing_task).completion_ratio();
      new_ratio = net.task(new_task).completion_ratio();
      break;
    case PreemptPolicy::kSchedulable:
      victim_ratio = schedulable_ratio(net, missing_task, trial, adopted);
      new_ratio = schedulable_ratio(net, new_task, trial, adopted);
      break;
  }
  if (victim_ratio < new_ratio) return {Decision::kPreemptVictim, missing_task};
  return {Decision::kRejectNew, net::kInvalidTask};
}

}  // namespace taps::core
