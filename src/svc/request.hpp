// Wire-level types of the in-process admission service: the task-arrival
// request a client submits, the response it gets back, and the reason
// vocabulary. Every submitted request produces exactly one response — the
// service never drops silently; overload, malformed input, shutdown and
// abandonment all surface as explicit reject reasons.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow.hpp"
#include "topo/graph.hpp"
#include "util/interval_set.hpp"

namespace taps::svc {

/// Service-assigned submission sequence number: dense, in submission order,
/// returned synchronously by submit() and echoed in the response.
using Seq = std::uint64_t;
inline constexpr Seq kInvalidSeq = ~static_cast<Seq>(0);

// taps-threading: thread-compatible
struct FlowRequest {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  double size = 0.0;  // bytes, must be > 0
};

/// One task arrival (the paper's coflow + deadline). Requests must be
/// submitted in non-decreasing `arrival` order — the service runs the
/// scheduler in virtual time and cannot admit into the past.
// taps-threading: thread-compatible
struct TaskRequest {
  double arrival = 0.0;
  double deadline = 0.0;  // absolute, must be > arrival
  std::vector<FlowRequest> flows;
  /// Optional client-chosen id (0 = untagged). While a tagged request is
  /// in flight, submitting the same tag again is rejected as a duplicate.
  std::uint64_t client_tag = 0;
};

enum class Reason : std::uint8_t {
  kAccepted,
  /// The TAPS reject rule declined the task (infeasible, not worth a
  /// preemption) — the only reason that involves running the planner.
  kPlannerReject,
  /// Value 2 is retired; the values after it keep their encoding, which
  /// response fingerprints hash.
  kMalformed = 3,
  /// Arrival time earlier than an already-enqueued arrival.
  kOutOfOrder,
  /// client_tag equal to a request still in flight.
  kDuplicate,
  /// Queue at capacity — explicit backpressure, retry later.
  kQueueFull,
  /// Client abandoned the request before a batch picked it up.
  kAbandoned,
  /// Service stopping; the request was flushed unprocessed.
  kShutdown,
  /// Cross-pod task declined before planning: the budgeted share of some
  /// endpoint pod's aggregate uplink time for its deadline window is
  /// already reserved (see docs/CONTROLLER.md, "Cross-pod admission").
  kBudgetExhausted,
};

[[nodiscard]] inline const char* to_string(Reason r) {
  switch (r) {
    case Reason::kAccepted: return "accepted";
    case Reason::kPlannerReject: return "planner-reject";
    case Reason::kMalformed: return "malformed";
    case Reason::kOutOfOrder: return "out-of-order";
    case Reason::kDuplicate: return "duplicate";
    case Reason::kQueueFull: return "queue-full";
    case Reason::kAbandoned: return "abandoned";
    case Reason::kShutdown: return "shutdown";
    case Reason::kBudgetExhausted: return "budget-exhausted";
  }
  return "?";
}

/// What an accepted flow gets: its route and pre-allocated exclusive-use
/// transmission slices (the controller's instructions to the rate limiter).
// taps-threading: thread-compatible
struct FlowGrant {
  topo::Path path;
  util::IntervalSet slices;

  friend bool operator==(const FlowGrant&, const FlowGrant&) = default;
};

// taps-threading: thread-compatible
struct TaskResponse {
  Seq seq = kInvalidSeq;
  std::uint64_t client_tag = 0;
  Reason reason = Reason::kMalformed;
  /// One grant per requested flow, in request order (accepted only).
  std::vector<FlowGrant> grants;
  /// Previously accepted tasks revoked to admit this one (their flows must
  /// stop transmitting), identified by their submission seq.
  std::vector<Seq> preempted;

  [[nodiscard]] bool accepted() const { return reason == Reason::kAccepted; }

  friend bool operator==(const TaskResponse&, const TaskResponse&) = default;
};

}  // namespace taps::svc
