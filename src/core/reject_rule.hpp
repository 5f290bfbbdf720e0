// The TAPS reject rule (Algorithm 1, step 11).
//
// After the trial plan (all admitted unfinished flows plus the new task's
// flows, globally re-planned), the controller decides:
//   - accept the new task if every flow in the trial is feasible;
//   - reject the new task if (1) infeasible flows span more than one task,
//     or (2) any of the new task's own flows is infeasible, or (3) the one
//     infeasible task's completion ratio is not less than the new task's;
//   - otherwise preempt: discard the single infeasible task (its completion
//     ratio — fraction of its flows already completed — is lower than the
//     new task's) and accept the new task.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "core/path_allocation.hpp"

namespace taps::core {

enum class Decision { kAccept, kRejectNew, kPreemptVictim };

/// How "the completion ratio of the task" is read when exactly one incumbent
/// task would miss deadlines under the trial:
///   kProgress    — the paper's literal reading: fraction of the task's
///                  flows already *completed*. A brand-new task has ratio 0
///                  and therefore never preempts an incumbent; preemption
///                  only fires for later waves of partially-completed tasks.
///   kSchedulable — forward-looking variant: fraction of the task's flows
///                  that are completed OR feasible under the trial. A fully
///                  feasible newcomer (ratio 1) then always displaces a
///                  doomed incumbent — the aggressive reading of "TAPS
///                  supports task preemption". Compared in bench_ablation.
enum class PreemptPolicy { kProgress, kSchedulable };

// taps-threading: thread-compatible
struct RejectOutcome {
  Decision decision = Decision::kAccept;
  net::TaskId victim = net::kInvalidTask;  // set when decision == kPreemptVictim
};

[[nodiscard]] const char* to_string(Decision d);

/// Apply the rule to `trial`. A caller that planned only part of the trial
/// passes that part and `adopted`: the number of a task's flows in the rest,
/// all of which must be feasible. Only kSchedulable reads it; the outcome is
/// then the one the whole trial would give.
[[nodiscard]] RejectOutcome apply_reject_rule(
    const net::Network& net, net::TaskId new_task, std::span<const FlowPlan> trial,
    PreemptPolicy policy = PreemptPolicy::kProgress,
    const std::function<std::size_t(net::TaskId)>& adopted = {});

}  // namespace taps::core
