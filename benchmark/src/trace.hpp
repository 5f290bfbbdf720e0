// Span recorder for the traced run. Spans are opened and closed by the
// benchmark around public library calls (never inside the library), on one
// thread, so they nest strictly: a span's self time is its duration minus
// the durations of its direct children. Spans of one request carry its Seq;
// each records its parent's id. The first kKeptSpans spans are kept in
// memory and written at exit as Chrome trace-event JSON (open it in
// Perfetto); per-layer totals cover every span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace taps_bench {

/// Track (Chrome "tid") a span is drawn on.
enum class Track : int { kClient = 1, kReplay = 2 };

class Tracer {
 public:
  struct Layer {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    [[nodiscard]] double mean_self_us() const {
      return count == 0 ? 0.0 : self_us / static_cast<double>(count);
    }
  };

  static constexpr std::size_t kKeptSpans = std::size_t{1} << 18;

  Tracer() : origin_(Clock::now()) {}

  void begin(const char* name, std::uint64_t seq, Track track);
  /// Close the innermost open span; returns its duration in microseconds.
  double end();
  /// Drop the innermost open span unrecorded (e.g. a poll that found
  /// nothing: client idle time, not work of any layer).
  void discard() { open_.pop_back(); }

  /// Totals of every closed span named `name` (zero when none).
  [[nodiscard]] Layer layer(std::string_view name) const;
  /// Write the kept spans as Chrome trace-event JSON; false on I/O error.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::uint64_t seq;
    std::int64_t id;
    std::int64_t parent;
    Track track;
    Clock::time_point t0;
    double child_us;
  };
  struct Span {
    const char* name;
    std::uint64_t seq;
    std::int64_t id;
    std::int64_t parent;
    Track track;
    double ts_us;
    double dur_us;
  };

  Clock::time_point origin_;
  std::vector<Open> open_;
  std::vector<Span> kept_;
  std::int64_t next_id_ = 0;
  std::map<std::string_view, Layer> layers_;
};

/// RAII span; a null tracer makes it a no-op, so one code path serves the
/// traced and the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t seq,
             Track track = Track::kClient)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, seq, track);
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    if (discard_) {
      tracer_->discard();
    } else {
      tracer_->end();
    }
  }
  void discard() { discard_ = true; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

 private:
  Tracer* tracer_;
  bool discard_ = false;
};

}  // namespace taps_bench
