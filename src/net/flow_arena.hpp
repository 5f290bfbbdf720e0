// FlowStateArena: structure-of-arrays storage for the mutable per-flow
// simulation state (remaining / rate / bytes_sent / completion_time / state).
// `net::Flow` is a view over one arena slot (slot index == FlowId), so the
// rest of the tree keeps its object-per-flow API while the simulator's hot
// loops get flat, cache-friendly arrays.
//
// Storage is chunked: slots never move once allocated, so the references a
// Flow view hands out stay valid across arena growth.
//
// Rate writes go through set_rate(), which is compare-on-write and feeds a
// deduplicated dirty list — the simulator's event loop drains it after
// every assign_rates() call to learn which flows actually changed speed
// instead of assuming all of them did (see DESIGN.md "Simulation engine").
//
// One domain owns an arena, reads included: each shard and each sweep cell
// owns its Network, and the pool's join orders a shard's batches.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace taps::net {

using FlowId = std::int32_t;
using TaskId = std::int32_t;

inline constexpr FlowId kInvalidFlow = -1;
inline constexpr TaskId kInvalidTask = -1;

enum class FlowState : std::uint8_t {
  kPending,    // not yet arrived or not yet admitted
  kActive,     // admitted, transmitting (or waiting for its time slices)
  kCompleted,  // all bytes delivered before the deadline
  kMissed,     // deadline passed with bytes remaining
  kRejected,   // never admitted (its task was rejected/preempted)
};

[[nodiscard]] const char* to_string(FlowState s);

// taps-threading: single-domain
class FlowStateArena {
 public:
  static constexpr std::size_t kChunkShift = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;  // slots per chunk

  FlowStateArena() = default;
  FlowStateArena(const FlowStateArena&) = delete;
  FlowStateArena& operator=(const FlowStateArena&) = delete;

  /// Append one slot initialized for an unstarted flow of `size` bytes;
  /// returns its index (== the FlowId the Network will assign).
  std::size_t push(double size) {
    const std::size_t i = size_;
    if ((i >> kChunkShift) == chunks_.size()) chunks_.push_back(std::make_unique<Chunk>());
    Chunk& c = *chunks_[i >> kChunkShift];
    const std::size_t s = i & (kChunkSize - 1);
    c.remaining[s] = size;
    c.rate[s] = 0.0;
    c.bytes_sent[s] = 0.0;
    c.completion_time[s] = -1.0;
    c.state[s] = FlowState::kPending;
    c.rate_dirty[s] = 0;
    size_ = i + 1;
    return i;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] double& remaining(std::size_t i) { return chunk(i).remaining[slot(i)]; }
  [[nodiscard]] double& bytes_sent(std::size_t i) { return chunk(i).bytes_sent[slot(i)]; }
  [[nodiscard]] double& completion_time(std::size_t i) { return chunk(i).completion_time[slot(i)]; }
  [[nodiscard]] FlowState& state(std::size_t i) { return chunk(i).state[slot(i)]; }
  [[nodiscard]] double remaining(std::size_t i) const { return chunk(i).remaining[slot(i)]; }
  [[nodiscard]] double bytes_sent(std::size_t i) const { return chunk(i).bytes_sent[slot(i)]; }
  [[nodiscard]] double completion_time(std::size_t i) const {
    return chunk(i).completion_time[slot(i)];
  }
  [[nodiscard]] FlowState state(std::size_t i) const { return chunk(i).state[slot(i)]; }
  /// Read-only: all rate writes must go through set_rate() for dirty tracking.
  [[nodiscard]] const double& rate(std::size_t i) const { return chunk(i).rate[slot(i)]; }

  /// Compare-on-write rate update. A changed flow enters the dirty list at
  /// most once between drains (per-slot flag), so a scheduler that writes a
  /// flow's rate more than once per call (D3's grant, then its base-rate
  /// fill on top) costs one list entry per flow, not one per write.
  void set_rate(std::size_t i, double r) {
    Chunk& c = chunk(i);
    const std::size_t s = slot(i);
    if (c.rate[s] == r) return;
    c.rate[s] = r;
    if (c.rate_dirty[s] == 0) {
      c.rate_dirty[s] = 1;
      dirty_.push_back(static_cast<FlowId>(i));
    }
  }

  /// Move the dirty list (flows whose rate changed since the last drain, in
  /// first-change order) into `out` and reset the per-slot flags. The
  /// reference loop never drains; the flags then bound the list at one
  /// entry per flow, so memory stays O(flows) either way.
  void drain_dirty(std::vector<FlowId>& out) {
    out.clear();
    out.swap(dirty_);
    for (const FlowId fid : out) {
      const auto i = static_cast<std::size_t>(fid);
      chunk(i).rate_dirty[slot(i)] = 0;
    }
  }

 private:
  struct Chunk {
    std::array<double, kChunkSize> remaining{};
    std::array<double, kChunkSize> rate{};
    std::array<double, kChunkSize> bytes_sent{};
    std::array<double, kChunkSize> completion_time{};
    std::array<FlowState, kChunkSize> state{};
    std::array<std::uint8_t, kChunkSize> rate_dirty{};
  };

  [[nodiscard]] Chunk& chunk(std::size_t i) const {
    assert(i < size_);
    return *chunks_[i >> kChunkShift];
  }
  [[nodiscard]] static std::size_t slot(std::size_t i) { return i & (kChunkSize - 1); }

  std::vector<std::unique_ptr<Chunk>> chunks_;  // heap chunks never move
  std::size_t size_ = 0;
  std::vector<FlowId> dirty_;
};

}  // namespace taps::net
