// The TAPS scheduler (Algorithm 1): task-level, deadline-aware, preemptive.
//
// On every task arrival the controller re-plans globally: it takes all
// unfinished flows of admitted tasks plus the new task's flows, sorts them
// EDF+SJF, runs PathCalculation/TimeAllocation (Algorithms 2/3) to produce a
// trial schedule, and applies the reject rule. Accepted flows receive
// pre-allocated transmission time slices; each link carries at most one flow
// at any instant and flows transmit at full link rate inside their slices.
//
// In this simulation model all flows of a task arrive together (as in the
// paper's evaluation), which corresponds to Algorithm 1's gather window T
// collapsing to the task batch.
#pragma once

#include <cstdint>
#include <queue>

#include "core/reject_rule.hpp"
#include "sched/scheduler.hpp"

namespace taps::core {

// taps-threading: thread-compatible
struct TapsConfig {
  /// Candidate-path budget per flow for Algorithm 2.
  std::size_t max_paths = 16;
  /// Reject-rule preemption reading (see PreemptPolicy). Default is the
  /// paper's literal progress-based comparison.
  PreemptPolicy preempt_policy = PreemptPolicy::kProgress;
  /// Ablation: pin each flow to an ECMP-hashed path instead of centralized
  /// earliest-completion path selection (see PlanConfig::ecmp_routing).
  bool ecmp_routing = false;
  /// Deadline slack budgeted for data-plane pipeline latency (see
  /// PlanConfig::guard_band). Keep 0 for the paper's fluid evaluation; set
  /// to ~a few packet times x path length on packet networks.
  double guard_band = 0.0;
  /// Trim committed occupancy and per-flow slices below `now` every this
  /// many task arrivals (0 disables). Bounds memory on long runs; planning
  /// only reads occupancy at or after `now`, so trimming never changes a
  /// schedule.
  std::size_t trim_interval = 64;
};

// taps-threading: thread-compatible
struct TapsCounters {
  std::size_t tasks_accepted = 0;
  std::size_t tasks_rejected = 0;
  std::size_t tasks_preempted = 0;
  std::size_t replans = 0;
  /// Compacting re-plans abandoned because the greedy allocator would have
  /// stranded an already-admitted flow (the prior plan was kept instead).
  std::size_t replan_reverts = 0;
  /// Arrivals whose trial order kept an untransmitted committed prefix, so
  /// only the flows after the watermark plus the wave were sorted and merged
  /// in (vs full_sorts: nothing before the watermark, the whole trial order
  /// was sorted).
  std::size_t incremental_sorts = 0;
  std::size_t full_sorts = 0;
  /// Flow positions actually planned by running Algorithms 2/3
  /// (plan_one_flow calls). The planner-effort denominator for the two
  /// reuse counters below.
  std::size_t flows_planned = 0;
  /// Candidate paths whose full union Algorithm 3 scanned (the candidate
  /// tree's leaf scans; subtree bound scans do not count). Effort per
  /// planned flow is paths_evaluated / flows_planned.
  std::size_t paths_evaluated = 0;
  /// Flow positions satisfied by adopting the committed plan's still-valid
  /// leading prefix at session open instead of replanning them
  /// (cross-arrival prefix reuse). A restarted session counts its prefix
  /// again.
  std::size_t cross_arrival_reuse_flows = 0;
  /// Flow positions kept from an earlier replan of the same arrival when
  /// the preemption-validation or compacting replan resumed from a prefix
  /// checkpoint (within-arrival reuse).
  std::size_t checkpoint_reuse_flows = 0;
  /// Sessions abandoned mid-arrival because a later replan of
  /// the same arrival diverged inside the adopted prefix (e.g. the
  /// preemption victim owned one of the adopted flows), forcing a rollback
  /// to the committed state and a fresh session open.
  std::size_t session_restarts = 0;
  /// Periodic occupancy/slice trims (TapsConfig::trim_interval).
  std::size_t occupancy_trims = 0;
  /// Plans committed (arrivals that changed the schedule: admissions plus
  /// successful compacting replans).
  std::size_t plan_commits = 0;
  /// Per-flow (re)grants: committed entries whose path or slices changed
  /// relative to the previous commit. Exactly the grant events a
  /// sim::TimelineRecorder would record (docs/TIMELINE.md), counted whether
  /// or not one is attached — so sweep CSVs stay byte-identical either way.
  std::size_t slice_grants = 0;
  /// Never incremented; benchmark/src/layers.cpp reads both, so they go when it does.
  std::size_t pod_fast_rejects = 0;
  std::size_t global_fallbacks = 0;
};

// taps-threading: single-domain -- scheduler state advances under one simulation domain
class TapsScheduler : public sched::BaseScheduler {
 public:
  explicit TapsScheduler(const TapsConfig& config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "TAPS"; }

  void bind(net::Network& net) override;
  void on_task_arrival(net::TaskId id, double now) override;
  void on_flow_finished(net::FlowId id, double now) override;
  double assign_rates(double now) override;

  /// Pre-allocated slices of a flow (for tests / the SDN controller).
  [[nodiscard]] const util::IntervalSet& slices(net::FlowId id) const {
    return slices_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const OccupancyMap& occupancy() const { return occ_; }
  [[nodiscard]] const TapsCounters& counters() const { return counters_; }

  /// Flows whose committed path or slices changed during the latest
  /// on_task_arrival() (empty when it committed nothing): the replanned
  /// tail's re-grants, which is all a caller tracking slice ends needs.
  [[nodiscard]] const std::vector<net::FlowId>& regranted() const { return regranted_; }
  /// The task preempted by the latest on_task_arrival(), or kInvalidTask.
  [[nodiscard]] net::TaskId preempted() const { return preempted_; }

  /// Move the committed scheduler state onto `fresh`, a re-registration of
  /// the current network's unfinished tasks (same flow states/remaining
  /// bitwise, same relative order). `flow_map[old_id]` gives each old flow's
  /// id in `fresh`, or net::kInvalidFlow for flows that were dropped
  /// (finished tasks). Counters, the committed occupancy and the
  /// cross-arrival validity token carry over, so subsequent decisions are
  /// bit-identical to never having migrated: kept ids preserve relative
  /// order (every EDF+SJF tie-break compares the same way), dropped flows
  /// can only own past occupancy, which planning (always querying at or
  /// after `now`) never reads and trimming eventually drops, and the
  /// candidate-path cache is rebuilt lazily from immutable (src, dst) pairs.
  /// This is how the long-lived controller service (svc::Shard) bounds the
  /// task/flow registry on unbounded arrival streams. Must be called
  /// between arrivals (no open session); active_ is rebuilt in flow-id
  /// order, so assign_rates() makeup tie-breaks may differ afterwards — the
  /// service never calls assign_rates.
  void migrate(net::Network& fresh, const std::vector<net::FlowId>& flow_map);

 private:
  void admit(net::TaskId id, const std::vector<net::FlowId>& wave, double now);

  /// Algorithm 1's reject tail: reject `id`, then compact the surviving
  /// incumbents (the trial without `id`'s flows) by resuming the open
  /// session at them. Commits if every survivor stays feasible; otherwise
  /// abandons the session and counts a revert (the prior plan, which
  /// transmission has followed exactly, still fits every deadline).
  void reject_and_compact(net::TaskId id, double now);

  // ---- journaled admission sessions ----
  //
  // One arrival runs as a *session* that mutates the committed map occ_ in
  // place under journal_. The committed order is persistent; its leading
  // run of entries that cannot have transmitted (found by binary search on
  // the commit-time prefix-minimum of first-slice starts, the *watermark*)
  // and that sort ahead of every flow that needs a new plan is adopted
  // wholesale (zero cost). Everything after it is vacated by its exact
  // slices, and the tail is replanned with every mutation logged. Later
  // replans of the same arrival (preemption validation, compacting) roll
  // back to the checkpoint of the longest shared prefix and replan only
  // from there. Reverting the whole arrival is a rollback to the session
  // start. A session that adopts nothing is a full replan. See DESIGN.md
  // ("Incremental replanning") for the argument that schedules stay
  // bit-identical to the full-replan oracle (core::FullReplanOracle).

  /// Number of leading committed positions that cannot have transmitted or
  /// left since their commit: every entry before it is unfinished, has its
  /// committed remaining and slices, and is still in EDF+SJF order.
  [[nodiscard]] std::size_t watermark(double now) const;
  /// Start a session that adopts committed_order_[0, adopt) (requires an
  /// empty journal) and vacates every later committed entry.
  void open_session(std::size_t adopt, double now);
  /// Re-aim the session at the trial without `removed`'s flows: roll back
  /// to the checkpoint of the longest shared prefix (or restart the session
  /// when `removed` owns an adopted flow) and replan the tail.
  void resume_session(net::TaskId removed, double now);
  /// Plan target_[session_order_.size() ..] after the adopted prefix.
  void plan_tail(double now);
  /// Smallest committed position of `task`'s flows (SIZE_MAX when none),
  /// read from the position index.
  [[nodiscard]] std::size_t first_position(net::TaskId task) const;
  /// Adopted flows of `task`: all feasible, so the reject rule counts them
  /// without seeing their plans.
  [[nodiscard]] std::size_t adopted_flows(net::TaskId task) const;
  /// Install the session as the committed plan: move the tail's planned
  /// paths/slices into the network and rewrite committed_order_ from the
  /// adopted prefix on, then drop the journal (occ_ already holds the
  /// planned occupancy).
  void commit_session(double now);
  /// Roll occ_ back to the session start, restoring the committed state
  /// bitwise.
  void abandon_session();
  /// Deterministic trim cadence (the oracle runs the same one).
  void maybe_trim(double now);

  // ---- event-driven rate maintenance ----
  //
  // assign_rates keeps a min-heap of per-flow next-boundary times. A heap
  // entry stays valid while the flow's committed slices are untouched
  // (per-flow generation counter, bumped by touch_slices at every commit
  // that re-granted the flow); expired or superseded entries are refreshed
  // or dropped lazily. Trimming needs no touch: it only removes boundaries
  // at or before `now`, which next_boundary/contains queries never return.
  /// Record that `fid`'s committed slices changed: invalidates its heap
  /// entry and queues a refresh at the next assign_rates call.
  void touch_slices(net::FlowId fid);
  /// Recompute `fid`'s rate from its slices at `now` (the reference loop's
  /// per-flow block verbatim) and push its next boundary. Returns false when
  /// the flow needs makeup transmission — the caller then falls back to
  /// assign_rates_reference permanently.
  bool refresh_rate(net::FlowId fid, double now);
  /// The full rescan, the only implementation of makeup transmission
  /// (packet-quantized execution can strand a sub-MTU tail past its last
  /// slice; see pkt::PacketSimulator).
  double assign_rates_reference(double now);

  TapsConfig config_;
  /// Committed occupancy: between arrivals, exactly the union of the
  /// committed order's slices (sessions mutate it in place under journal_).
  OccupancyMap occ_{0};
  std::vector<util::IntervalSet> slices_;  // indexed by FlowId
  std::vector<char> makeup_busy_;          // per-link claims within one assign_rates
  std::vector<net::FlowId> committed_order_;  // EDF+SJF order of the last commit
  /// Per committed position: the minimum over positions [0, k] of each
  /// entry's first-slice start *at its commit* (-inf for an entry that is
  /// not adoptable at all). Non-increasing, so the watermark is a binary
  /// search. Commit-time values matter: a trim clips a transmitting flow's
  /// slices to start at the trim instant, which would hide its progress.
  std::vector<double> committed_min_start_;
  /// Per flow: its position in committed_order_, or kNoPosition.
  std::vector<std::uint32_t> committed_pos_;
  static constexpr std::uint32_t kNoPosition = ~std::uint32_t{0};
  /// Committed positions at or after this are not adoptable whatever their
  /// starts: an event edited flow state outside a commit (a missed deadline
  /// drops it to 0, a reverted compaction to the rejected newcomer's first
  /// committed flow). Each commit resets it to the order's length.
  std::size_t adopt_limit_ = 0;
  PlanScratch plan_scratch_;               // per-flow candidate-path cache
  TapsCounters counters_;

  // Session state (meaningful only within one arrival).
  OccupancyJournal journal_;
  std::size_t session_adopted_ = 0;            // adopted prefix length
  std::size_t trial_base_ = 0;                 // the trial's adopted prefix length
  std::vector<net::FlowId> trial_;             // trial order from trial_base_ on
  std::vector<net::FlowId> target_;            // current target from session_adopted_ on
  std::vector<net::FlowId> session_order_;     // tail planned so far (from session_adopted_)
  std::vector<FlowPlan> session_plans_;        // one per session_order_ entry
  std::vector<OccupancyCheckpoint> session_marks_;  // journal state BEFORE each tail entry
  std::vector<net::FlowId> session_retired_;   // spent flows whose slices clear on commit
  std::size_t session_infeasible_ = 0;
  std::vector<net::FlowId> regranted_;         // see regranted()
  net::TaskId preempted_ = net::kInvalidTask;  // see preempted()
  /// Per-flow remaining bytes at last commit. The watermark guarantees an
  /// adopted entry has not transmitted; Debug builds check it against this.
  std::vector<double> committed_remaining_;
  std::size_t arrivals_since_trim_ = 0;
  /// `now` of the last trim walk: nothing before it is left anywhere.
  double last_trim_ = -sim::kInfinity;

  // Event-driven rate state (see touch_slices/refresh_rate above).
  struct RateBoundary {
    double time = 0.0;
    net::FlowId fid = net::kInvalidFlow;
    std::uint64_t gen = 0;
  };
  struct RateBoundaryAfter {
    bool operator()(const RateBoundary& a, const RateBoundary& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.fid != b.fid) return a.fid > b.fid;
      return a.gen > b.gen;
    }
  };
  using RateHeap = std::priority_queue<RateBoundary, std::vector<RateBoundary>, RateBoundaryAfter>;
  RateHeap rate_heap_;
  std::vector<std::uint64_t> slice_gen_;  // per flow; bumped by touch_slices
  std::vector<char> rate_touched_mark_;   // per flow: pending refresh queued
  std::vector<net::FlowId> rate_touched_;
  bool rate_fallback_ = false;  // makeup transmission seen: rescan from now on
};

}  // namespace taps::core
