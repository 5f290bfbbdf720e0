#include "svc/service.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "topo/fattree.hpp"

namespace taps::svc {

namespace {

std::size_t hist_bucket(std::size_t batch_size) {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(batch_size)) - 1;
  return std::min(b, kBatchHistBuckets - 1);
}

}  // namespace

AdmissionService::AdmissionService(const topo::Topology& topology, const ServiceConfig& config)
    : topo_(&topology), config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.max_batch == 0) config_.max_batch = 1;
  const auto* fat_tree = dynamic_cast<const topo::FatTree*>(topo_);
  if (config_.shards > 1 && fat_tree == nullptr) {
    throw std::invalid_argument("AdmissionService: sharding requires a fat-tree topology");
  }
  node_shard_.assign(topo_->graph().node_count(), -1);
  for (const topo::NodeId host : topo_->hosts()) {
    const std::size_t shard =
        config_.shards > 1
            ? static_cast<std::size_t>(fat_tree->pod_of_host(host)) % config_.shards
            : 0;
    node_shard_[static_cast<std::size_t>(host)] = static_cast<int>(shard);
  }
  const bool global_domain = config_.shards > 1;
  shards_.reserve(config_.shards + (global_domain ? 1 : 0));
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(topology, config_.shard));
  }
  if (global_domain) {
    // The global cross-pod domain: a full-topology shard that commits the
    // spanning tasks the pod shards cannot plan. Budgeted reservations
    // (reserve_cross_pod) bound how much pod-uplink time it may promise.
    global_shard_ = static_cast<int>(shards_.size());
    shards_.push_back(std::make_unique<Shard>(topology, config_.shard));
    pod_reserved_.resize(static_cast<std::size_t>(fat_tree->pods()->pod_count()));
  }
}

AdmissionService::~AdmissionService() { stop(); }

bool AdmissionService::reserve_cross_pod(const TaskRequest& request) {
  const topo::PodMap& pods = *topo_->pods();
  const double window = config_.cross_pod_window;
  const auto bucket = static_cast<std::int64_t>(request.deadline / window);
  // Expire windows that ended before this arrival. Arrivals at this point
  // are non-decreasing (kOutOfOrder already filtered), so expiry — like the
  // reservations themselves — is a pure function of the submission order.
  for (auto& reserved : pod_reserved_) {
    auto it = reserved.begin();
    while (it != reserved.end() &&
           static_cast<double>(it->first + 1) * window <= request.arrival) {
      it = reserved.erase(it);
    }
  }
  // Seconds of aggregate pod uplink time each endpoint pod must promise.
  std::map<int, double> need;
  for (const FlowRequest& f : request.flows) {
    const int ps = pods.pod_of(f.src);
    const int pd = pods.pod_of(f.dst);
    if (ps == pd) continue;  // intra-pod flow of a spanning task
    need[ps] += f.size / pods.uplink_capacity(ps);
    need[pd] += f.size / pods.uplink_capacity(pd);
  }
  const double budget = config_.cross_pod_budget * window;
  for (const auto& [pod, n] : need) {
    const auto& reserved = pod_reserved_[static_cast<std::size_t>(pod)];
    const auto it = reserved.find(bucket);
    const double used = it == reserved.end() ? 0.0 : it->second;
    if (used + n > budget) return false;
  }
  for (const auto& [pod, n] : need) {
    pod_reserved_[static_cast<std::size_t>(pod)][bucket] += n;
  }
  return true;
}

std::size_t AdmissionService::classify(const TaskRequest& request,
                                       std::optional<Reason>& reject) {
  if (stopping_) {
    reject = Reason::kShutdown;
    return 0;
  }
  const auto bad_node = [&](topo::NodeId n) {
    return n < 0 || static_cast<std::size_t>(n) >= node_shard_.size() ||
           node_shard_[static_cast<std::size_t>(n)] < 0;
  };
  bool malformed = request.flows.empty() || !(request.arrival >= 0.0) ||
                   !std::isfinite(request.arrival) || !(request.deadline > request.arrival) ||
                   !std::isfinite(request.deadline);
  for (const FlowRequest& f : request.flows) {
    if (malformed) break;
    malformed = bad_node(f.src) || bad_node(f.dst) || f.src == f.dst || !(f.size > 0.0) ||
                !std::isfinite(f.size);
  }
  if (malformed) {
    reject = Reason::kMalformed;
    return 0;
  }
  const int shard = node_shard_[static_cast<std::size_t>(request.flows.front().src)];
  bool spanning = false;
  for (const FlowRequest& f : request.flows) {
    if (node_shard_[static_cast<std::size_t>(f.src)] != shard ||
        node_shard_[static_cast<std::size_t>(f.dst)] != shard) {
      spanning = true;
      break;
    }
  }
  if (request.arrival < last_arrival_) {
    reject = Reason::kOutOfOrder;
    return 0;
  }
  if (request.client_tag != 0 && inflight_tags_.count(request.client_tag) != 0) {
    reject = Reason::kDuplicate;
    return 0;
  }
  if (queue_.size() >= config_.queue_capacity) {
    reject = Reason::kQueueFull;
    return 0;
  }
  if (spanning) {
    // Last check, so only requests that will actually enqueue can consume
    // budget (a queue-full or duplicate reject must not burn reservations).
    if (!reserve_cross_pod(request)) {
      reject = Reason::kBudgetExhausted;
      return 0;
    }
    ++counters_.cross_pod_enqueued;
    return static_cast<std::size_t>(global_shard_);
  }
  return static_cast<std::size_t>(shard);
}

void AdmissionService::push_response(TaskResponse&& resp) {
  ++counters_.responses;
  counters_.by_reason[static_cast<std::size_t>(resp.reason)] += 1;
  if (resp.accepted()) ++counters_.accepted;
  counters_.preemptions += resp.preempted.size();
  if (resp.client_tag != 0) inflight_tags_.erase(resp.client_tag);
  responses_.push_back(std::move(resp));
}

Seq AdmissionService::submit(const TaskRequest& request) {
  util::MutexLock lock(mu_);
  const Seq seq = next_seq_++;
  ++counters_.submitted;
  std::optional<Reason> reject;
  const std::size_t shard = classify(request, reject);
  if (reject) {
    TaskResponse resp;
    resp.seq = seq;
    resp.client_tag = request.client_tag;
    resp.reason = *reject;
    push_response(std::move(resp));
    return seq;
  }
  if (request.client_tag != 0) inflight_tags_.insert(request.client_tag);
  last_arrival_ = request.arrival;
  queue_.push_back(Pending{seq, shard, false, request});
  ++counters_.enqueued;
  counters_.max_queue_depth = std::max(counters_.max_queue_depth, queue_.size());
  work_cv_.notify_one();
  return seq;
}

bool AdmissionService::abandon(Seq seq) {
  util::MutexLock lock(mu_);
  for (Pending& p : queue_) {
    if (p.seq == seq && !p.abandoned) {
      p.abandoned = true;
      return true;
    }
  }
  return false;
}

bool AdmissionService::process_next_batch() {
  std::vector<Pending> batch;
  {
    util::MutexLock lock(mu_);
    if (queue_.empty()) return false;
    const std::size_t n = std::min(config_.max_batch, queue_.size());
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    batch_in_flight_ = true;
    ++counters_.batches;
    counters_.batch_hist[hist_bucket(batch.size())] += 1;
  }

  // Group by shard. Queue order is submission (seq) order, so every group
  // preserves it — the property the determinism argument rests on.
  std::vector<TaskResponse> out(batch.size());
  std::vector<std::vector<std::size_t>> groups(shards_.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].abandoned) {
      out[i].seq = batch[i].seq;
      out[i].client_tag = batch[i].request.client_tag;
      out[i].reason = Reason::kAbandoned;
    } else {
      groups[batch[i].shard].push_back(i);
    }
  }
  std::vector<std::size_t> active_shards;
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (!groups[s].empty()) active_shards.push_back(s);
  }
  const auto run_group = [&](std::size_t s) {
    for (const std::size_t i : groups[s]) {
      out[i] = shards_[s]->process(batch[i].seq, batch[i].request);
    }
  };
  if (pool_ != nullptr && active_shards.size() > 1) {
    pool_->parallel_for(active_shards.size(),
                        [&](std::size_t k) { run_group(active_shards[k]); });
  } else {
    for (const std::size_t s : active_shards) run_group(s);
  }

  {
    util::MutexLock lock(mu_);
    for (TaskResponse& resp : out) push_response(std::move(resp));
    batch_in_flight_ = false;
    idle_cv_.notify_all();
  }
  return true;
}

void AdmissionService::dispatcher_loop() {
  for (;;) {
    {
      util::MutexLock lock(mu_);
      while (queue_.empty() && !stopping_) work_cv_.wait(mu_);
      if (stopping_) return;  // stop() answers whatever is still queued
    }
    process_next_batch();
  }
}

void AdmissionService::start() {
  {
    util::MutexLock lock(mu_);
    if (started_) return;
    if (stopping_) throw std::logic_error("AdmissionService: start() after stop()");
    started_ = true;
  }
  if (config_.threads > 0) pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  dispatcher_ = util::Thread([this] { dispatcher_loop(); });
}

void AdmissionService::stop() {
  {
    util::MutexLock lock(mu_);
    if (stopping_ && !started_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.reset();
  {
    util::MutexLock lock(mu_);
    // The dispatcher finished its in-flight batch before exiting; answer
    // everything still queued so no request goes silently missing.
    while (!queue_.empty()) {
      Pending p = std::move(queue_.front());
      queue_.pop_front();
      TaskResponse resp;
      resp.seq = p.seq;
      resp.client_tag = p.request.client_tag;
      resp.reason = p.abandoned ? Reason::kAbandoned : Reason::kShutdown;
      push_response(std::move(resp));
    }
    started_ = false;
    idle_cv_.notify_all();
  }
}

void AdmissionService::pump() {
  {
    util::MutexLock lock(mu_);
    assert(!started_);
    if (started_) return;
  }
  while (process_next_batch()) {
  }
}

void AdmissionService::wait_idle() {
  util::MutexLock lock(mu_);
  while (started_ && (!queue_.empty() || batch_in_flight_)) idle_cv_.wait(mu_);
}

std::vector<TaskResponse> AdmissionService::take_responses() {
  util::MutexLock lock(mu_);
  std::vector<TaskResponse> out = std::move(responses_);
  responses_.clear();
  return out;
}

ServiceStats AdmissionService::stats() const {
  util::MutexLock lock(mu_);
  return counters_;
}

void AdmissionService::advance_clock(double t) {
  for (auto& s : shards_) s->advance_to(t);
}

std::optional<std::string> AdmissionService::audit() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (auto violation = shards_[i]->audit()) {
      return "shard " + std::to_string(i) + ": " + *violation;
    }
  }
  return std::nullopt;
}

}  // namespace taps::svc
