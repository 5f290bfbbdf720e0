// Annotated synchronization primitives for clang's thread-safety analysis.
//
// libstdc++'s std::mutex / std::lock_guard carry no `capability` attributes,
// so code locking through them cannot be checked by -Wthread-safety. These
// thin wrappers restore that: Mutex is a lockable capability, MutexLock is
// its scoped guard, and CondVar is a condition variable that waits on a
// Mutex directly (via std::condition_variable_any, which accepts any
// BasicLockable). All wrappers are zero-cost abstractions over the std types
// apart from condition_variable_any's internal reference bookkeeping, which
// is off every hot path (the pool's wait loop parks idle workers).
//
// This header is the ONLY sanctioned gateway to raw concurrency primitives:
// scripts/lint_concurrency.py bans `std::mutex`, `std::thread`,
// `std::atomic`, `std::condition_variable` (and friends) everywhere outside
// src/util, so every thread, lock, and atomic in the tree either lives here
// or goes through the annotated aliases below. That is what lets the linter
// and -Wthread-safety together account for all sharing in the tree.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>

#include "util/annotations.hpp"

namespace taps::util {

/// std::mutex annotated as a thread-safety capability.
class TAPS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TAPS_ACQUIRE() { m_.lock(); }
  void unlock() TAPS_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() TAPS_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// Scoped lock (std::lock_guard analogue) that the analysis can see.
class TAPS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TAPS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() TAPS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable waiting directly on an annotated Mutex. Waits require
/// the mutex held; the temporary release inside wait() happens within
/// std::condition_variable_any (a system header, outside the analysis).
///
/// Deliberately predicate-less: a predicate lambda reading guarded state
/// cannot carry a TAPS_REQUIRES annotation portably, so callers write the
/// classic `while (!ready) cv.wait(mu);` loop, which the analysis can check.
class CondVar {
 public:
  void wait(Mutex& mu) TAPS_REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

/// The sanctioned thread handle (ownership only; no annotation semantics —
/// what the spawned function may touch is governed by the capability
/// annotations on the state it uses).
using Thread = std::thread;

/// std::thread::hardware_concurrency through the sync layer, clamped to at
/// least 1 (the std call may return 0 when the count is unknowable).
[[nodiscard]] inline std::size_t hardware_concurrency() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace taps::util
