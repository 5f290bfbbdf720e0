// The standalone TAPS admission controller: an in-process service that
// accepts task-arrival requests through a bounded queue, batches
// near-simultaneous arrivals, and fans each batch out over pod-sharded
// admission domains (svc::Shard) on a thread pool. Sharded services admit
// pod-spanning tasks hierarchically: a budgeted pod-uplink reservation under
// the service lock (local reserve), then planning on a dedicated
// global-domain shard (global commit) — see docs/CONTROLLER.md.
//
// Concurrency model (see docs/CONTROLLER.md):
//   - submit()/abandon()/take_responses()/stats() are thread-safe; all
//     shared bookkeeping lives behind one annotated util::Mutex.
//   - At most one batch is in flight at a time. Within a batch, requests
//     are grouped by shard; each group is processed by exactly one worker,
//     in submission (seq) order. Shards share no mutable state, so groups
//     run concurrently without locks.
//   - Determinism: because per-shard processing order equals submission
//     order restricted to the shard, and responses depend only on that
//     per-shard order, the produced responses and final shard state are
//     bitwise-identical regardless of batch boundaries, worker threads, or
//     whether the service runs started (dispatcher thread) or pumped
//     inline. The equivalence property test pins this against the
//     sequential single-shard oracle.
//
// Every submitted request gets exactly one response; overload, malformed
// input, abandonment and shutdown all produce explicit reject reasons
// (never a silent drop).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "svc/shard.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace taps::svc {

/// One past the largest Reason value (by_reason is indexed by value).
inline constexpr std::size_t kReasonCount =
    static_cast<std::size_t>(Reason::kBudgetExhausted) + 1;
/// Batch-size histogram buckets: bucket b counts batches of size in
/// [2^b, 2^(b+1)).
inline constexpr std::size_t kBatchHistBuckets = 16;

// taps-threading: thread-compatible
struct ServiceConfig {
  /// Admission domains. 1 = the paper's global controller (any topology);
  /// >1 requires a fat-tree and maps pod p to shard p % shards. Sharded
  /// services admit pod-spanning tasks hierarchically: they reserve
  /// budgeted pod-uplink time under the service lock in submission order
  /// (local reserve), then commit on a dedicated global-domain shard
  /// alongside the pod shards (global commit). Unsharded services need no
  /// budget — every task already plans against full topology state.
  std::size_t shards = 1;
  /// Fraction of a pod's aggregate uplink time a deadline window's cross-pod
  /// reservations may claim before kBudgetExhausted. Reservations are made
  /// in submission order and expire with their window, never on planner
  /// reject — decisions stay independent of batch boundaries and threading.
  double cross_pod_budget = 0.5;
  /// Width (seconds) of one cross-pod reservation window.
  double cross_pod_window = 1.0;
  /// Worker threads for fanning a batch out over shards (0 = process shard
  /// groups inline on the dispatching thread).
  std::size_t threads = 0;
  /// Max requests drained into one batch.
  std::size_t max_batch = 64;
  /// Bound on queued-but-unprocessed requests; beyond it submissions are
  /// rejected kQueueFull (explicit backpressure).
  std::size_t queue_capacity = 4096;
  ShardConfig shard;
};

// taps-threading: thread-compatible
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t enqueued = 0;           // passed validation, entered the queue
  std::size_t cross_pod_enqueued = 0; // spanning tasks routed to the global domain
  std::size_t responses = 0;
  std::size_t accepted = 0;
  std::size_t preemptions = 0;
  std::size_t batches = 0;
  std::size_t max_queue_depth = 0;
  /// Responses by Reason (indexed by static_cast<size_t>(Reason)).
  std::array<std::size_t, kReasonCount> by_reason{};
  std::array<std::size_t, kBatchHistBuckets> batch_hist{};
};

// taps-threading: guarded -- mu_ guards all mutable state; public API is thread-safe
class AdmissionService {
 public:
  /// The topology must outlive the service. Throws std::invalid_argument
  /// when config.shards > 1 on a topology that is not a fat-tree.
  AdmissionService(const topo::Topology& topology, const ServiceConfig& config);
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Validate and enqueue one request; returns its seq. Invalid requests
  /// (and every request after stop()) are answered immediately with a
  /// reject response — the seq is still consumed. Thread-safe.
  Seq submit(const TaskRequest& request);

  /// Withdraw a queued request before a batch picks it up. Returns true if
  /// the request was still queued (it will be answered kAbandoned instead
  /// of being processed); false if it was already taken or answered.
  bool abandon(Seq seq);

  /// Spawn the dispatcher (and worker pool when threads > 0). Without
  /// start(), the service runs in pump mode: call pump() to process the
  /// queue inline — same results, bit for bit.
  void start();
  /// Drain: stop the dispatcher after its current batch, answer everything
  /// still queued with kShutdown, and join all threads. Idempotent; the
  /// destructor calls it. After stop() submissions answer kShutdown.
  void stop();

  /// Inline processing (pump mode, service not started): process queued
  /// requests batch by batch until the queue is empty.
  void pump();

  /// Block until the queue is empty and no batch is in flight (started
  /// services; returns immediately otherwise).
  void wait_idle();

  /// Move out all responses produced so far (any order between shards;
  /// sort by seq for a canonical view). Thread-safe.
  [[nodiscard]] std::vector<TaskResponse> take_responses();

  [[nodiscard]] ServiceStats stats() const;

  // ---- quiescent-only introspection (no batch in flight: before start(),
  // or after wait_idle()/stop()) -----------------------------------------

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const Shard& shard(std::size_t i) const { return *shards_[i]; }
  /// True when spanning tasks are admitted on a dedicated global domain
  /// (every sharded service). That domain is the last shard.
  [[nodiscard]] bool has_global_domain() const { return global_shard_ >= 0; }
  [[nodiscard]] std::size_t global_domain() const {
    return static_cast<std::size_t>(global_shard_);
  }
  /// Attach a decision observer to shard `i`'s scheduler (quiescent-only;
  /// see Shard::set_schedule_observer for the purity and id-space notes).
  void set_shard_schedule_observer(std::size_t i, sched::ScheduleObserver* observer) {
    shards_[i]->set_schedule_observer(observer);
  }
  /// Advance every shard's virtual clock (drain completions; testing aid).
  void advance_clock(double t);
  /// First invariant violation across all shards, or nullopt.
  [[nodiscard]] std::optional<std::string> audit() const;

 private:
  struct Pending {
    Seq seq = kInvalidSeq;
    std::size_t shard = 0;
    bool abandoned = false;
    TaskRequest request;
  };

  void dispatcher_loop();
  /// Drain and process one batch; returns false when the queue was empty.
  bool process_next_batch();
  /// Validation + shard classification; returns the target shard or, via
  /// `reject`, the immediate-reject reason. Commits cross-pod budget
  /// reservations (hence non-const): called under mu_ in submission order,
  /// so reservation state is a pure function of the submitted sequence.
  [[nodiscard]] std::size_t classify(const TaskRequest& request,
                                     std::optional<Reason>& reject) TAPS_REQUIRES(mu_);
  /// Reserve budgeted pod-uplink time for a spanning task; false when some
  /// endpoint pod's window budget cannot cover it (nothing is committed).
  [[nodiscard]] bool reserve_cross_pod(const TaskRequest& request) TAPS_REQUIRES(mu_);
  void push_response(TaskResponse&& resp) TAPS_REQUIRES(mu_);

  const topo::Topology* topo_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// NodeId -> owning shard, -1 for non-host nodes (malformed endpoints).
  std::vector<int> node_shard_;
  /// Index of the global cross-pod domain in shards_, -1 when unsharded.
  int global_shard_ = -1;
  /// Per-pod cross-pod reservations: deadline window (floor(deadline / window),
  /// a double so every finite deadline has one) -> seconds of the pod's
  /// aggregate uplink time already promised to spanning tasks.
  std::vector<std::map<double, double>> pod_reserved_ TAPS_GUARDED_BY(mu_);

  mutable util::Mutex mu_;
  util::CondVar work_cv_;
  util::CondVar idle_cv_;
  std::deque<Pending> queue_ TAPS_GUARDED_BY(mu_);
  std::vector<TaskResponse> responses_ TAPS_GUARDED_BY(mu_);
  /// client_tags currently in flight (duplicate detection; point lookups
  /// only — no iteration, so determinism is unaffected).
  std::set<std::uint64_t> inflight_tags_ TAPS_GUARDED_BY(mu_);
  Seq next_seq_ TAPS_GUARDED_BY(mu_) = 0;
  double last_arrival_ TAPS_GUARDED_BY(mu_) = 0.0;
  bool started_ TAPS_GUARDED_BY(mu_) = false;
  bool stopping_ TAPS_GUARDED_BY(mu_) = false;
  bool batch_in_flight_ TAPS_GUARDED_BY(mu_) = false;
  ServiceStats counters_ TAPS_GUARDED_BY(mu_);

  util::Thread dispatcher_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace taps::svc
