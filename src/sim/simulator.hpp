// Fluid-flow discrete-event simulator.
//
// The paper evaluates every protocol with a *flow-level* simulator: between
// events, each flow transmits at a scheduler-assigned rate; events are task
// arrivals, flow completions, flow deadlines, and scheduler-internal rate
// changes (TAPS time-slice boundaries). This engine drives any Scheduler
// over a Network and keeps byte accounting exact.
//
// Per-event work scales with the flows that are actually transmitting or
// changing, not with every active flow. A compacting "running" list (flows
// with rate > 0, ordered by enlist sequence) feeds the completion
// projection; a deadline min-heap is populated once per admission; the
// rate-dirty set drained from the Network's FlowStateArena reclassifies only
// flows whose rate moved in assign_rates. See DESIGN.md "Simulation engine".
// taps_oracle's sim::ReferenceSimulator is the O(active) rescan it replays.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace taps::sim {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();
/// Sub-byte tolerance when deciding that a flow has finished.
inline constexpr double kByteEpsilon = 1e-6;
/// Tolerance when comparing simulation times.
inline constexpr double kTimeEpsilon = 1e-9;

/// Scheduling policy driven by the simulator. Implementations mutate flow
/// state in the Network: admit/reject tasks, assign paths, set rates.
// taps-threading: single-domain -- scheduler state advances under one simulation domain
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Bind to the network for one run. Called once before the first event.
  virtual void bind(net::Network& net) { net_ = &net; }

  /// A task (and all of its flows) arrived at `now`. The scheduler must
  /// leave each of the task's flows either kActive (admitted) or kRejected.
  /// It may also preempt previously admitted tasks (mark them rejected).
  virtual void on_task_arrival(net::TaskId id, double now) = 0;

  /// A flow left the active set (completed or missed its deadline) at `now`.
  /// The flow's final state is already recorded in the Network.
  virtual void on_flow_finished(net::FlowId id, double now) = 0;

  /// Recompute rates of all active flows at `now` (via Flow::set_rate).
  /// May proactively terminate doomed flows (PDQ Early Termination) via
  /// Network::on_flow_missed. Returns the earliest future time at which
  /// rates will change even without an arrival/completion/deadline
  /// (kInfinity if none) — TAPS returns its next time-slice boundary.
  virtual double assign_rates(double now) = 0;

 protected:
  net::Network* net_ = nullptr;
};

/// Observes actual transmission segments (used for throughput-vs-time
/// series, e.g. the testbed experiment) plus the simulator's scheduler
/// boundaries. Only on_transmit is mandatory; the boundary hooks default to
/// no-ops so existing observers are unaffected. InvariantChecker implements
/// all of them to audit every run end-to-end.
class TransmitObserver {
 public:
  virtual ~TransmitObserver() = default;
  /// Flow `f` transmitted `bytes` uniformly over [t0, t1).
  virtual void on_transmit(const net::Flow& f, double t0, double t1, double bytes) = 0;
  /// Task `t` (one wave of it) is about to be announced to the scheduler at
  /// `now`. Fires for every scheduler kind — the scheduler-side
  /// sched::ScheduleObserver::on_task_seen only fires for schedulers that
  /// implement decision hooks (sim::TimelineRecorder dedupes the pair).
  virtual void on_task_arrival(const net::Task& /*t*/, double /*now*/) {}
  /// The event loop is about to process the event at time `now` (called once
  /// per iteration, with non-decreasing `now`).
  virtual void on_event(double /*now*/) {}
  /// Flow `f` just left the active set (its final state — kCompleted or
  /// kMissed — is already recorded and the scheduler has been notified).
  virtual void on_flow_finished(const net::Flow& /*f*/, double /*now*/) {}
  /// The run reached quiescence at `end_time`; `net` holds the final state.
  virtual void on_run_complete(const net::Network& /*net*/, double /*end_time*/) {}
};

/// How much work the engine did, as opposed to what it computed. These are
/// loop-dependent by design (the indexed loop exists to shrink them) and
/// are excluded from comparisons with the reference loop — the same
/// convention as TapsCounters, which Shard::fingerprint excludes.
/// Deterministic for a given loop and workload.
// taps-threading: thread-compatible
struct SimEffort {
  std::size_t flows_touched = 0;       // per-flow visits in the hot loops
  std::size_t lazy_skips = 0;          // active-flow visits avoided vs a full rescan
  std::size_t heap_invalidations = 0;  // stale deadline-heap entries dropped
  std::size_t rate_dirty = 0;          // rate-dirty entries drained from the arena
};

// taps-threading: thread-compatible
struct SimStats {
  double end_time = 0.0;        // time of the last event processed
  std::size_t events = 0;       // event-loop iterations
  std::size_t completions = 0;  // flows completed
  std::size_t misses = 0;       // flows that missed their deadline
  SimEffort effort;             // engine work counters (loop-dependent)
};

/// Event-loop iterations after which a run is declared livelocked.
inline constexpr std::size_t kMaxIterations = 200'000'000;

/// One arrival event: a task (one wave of it) is announced at `time`.
// taps-threading: thread-compatible
struct Wave {
  double time = 0.0;
  net::TaskId task = 0;
};

/// Arrival events of every task in `net`, sorted by (time, task).
[[nodiscard]] std::vector<Wave> build_waves(const net::Network& net);

/// End-of-run census into `stats`, then on_run_complete (observer may be null).
void finish_run(const net::Network& net, double end_time, SimStats& stats,
                TransmitObserver* observer);

// taps-threading: single-domain -- event loop state owned by one simulation domain
class FluidSimulator {
 public:
  FluidSimulator(net::Network& net, Scheduler& scheduler)
      : net_(&net), scheduler_(&scheduler) {}

  void set_observer(TransmitObserver* observer) { observer_ = observer; }

  /// Run to quiescence: all tasks arrived and no active flow remains.
  SimStats run();

 private:
  /// (enlist sequence, flow): all processing order is keyed on the sequence
  /// a flow entered the active set, which is exactly the reference loop's
  /// active-list order.
  struct SeqFlow {
    std::int64_t seq = 0;
    net::FlowId fid = net::kInvalidFlow;
  };
  struct DeadlineEntry {
    double deadline = 0.0;
    std::int64_t seq = 0;
    net::FlowId fid = net::kInvalidFlow;
  };
  struct DeadlineAfter {
    bool operator()(const DeadlineEntry& a, const DeadlineEntry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };
  using DeadlineHeap =
      std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>, DeadlineAfter>;

  net::Network* net_;
  Scheduler* scheduler_;
  TransmitObserver* observer_ = nullptr;
  double now_ = 0.0;
  SimStats stats_;

  // Event-loop state (reset per run).
  std::vector<std::int64_t> seq_of_;      // per flow; -1 = never enlisted
  std::vector<std::uint8_t> in_running_;  // per flow: has a running_ entry
  std::vector<std::uint8_t> retired_;     // per flow: active_count_ already decremented
  std::vector<SeqFlow> running_;          // flows with rate > 0, sorted by seq
  DeadlineHeap deadline_heap_;
  std::vector<SeqFlow> overdue_;       // enlisted past their deadline; settled, never a candidate
  std::vector<SeqFlow> finish_watch_;  // enlisted at/below kByteEpsilon remaining
  std::size_t active_count_ = 0;       // unfinished enlisted flows (drives lazy_skips)
  std::int64_t next_seq_ = 0;
  // Scratch buffers (reused across events to avoid per-event allocation).
  std::vector<SeqFlow> drained_;
  std::vector<SeqFlow> miss_scratch_;
  std::vector<net::FlowId> dirty_scratch_;
};

}  // namespace taps::sim
