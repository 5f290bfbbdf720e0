// Clang thread-safety analysis annotations (-Wthread-safety).
//
// Under clang every macro expands to the corresponding `capability` attribute
// so the static analysis can prove lock discipline at compile time; under gcc
// (which has no such analysis) they expand to nothing. Use together with the
// annotated primitives in util/sync.hpp — the std:: lock types carry no
// annotations on libstdc++, so locking through them is invisible to the
// analysis.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define TAPS_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef TAPS_THREAD_ANNOTATION_
#define TAPS_THREAD_ANNOTATION_(x)  // not clang (or too old): no-op
#endif

/// Marks a type as a lockable capability (e.g. a mutex wrapper).
#define TAPS_CAPABILITY(name) TAPS_THREAD_ANNOTATION_(capability(name))

/// Marks an RAII type whose lifetime holds a capability.
#define TAPS_SCOPED_CAPABILITY TAPS_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding `mu`.
#define TAPS_GUARDED_BY(mu) TAPS_THREAD_ANNOTATION_(guarded_by(mu))

/// Pointer member whose *pointee* is protected by `mu`.
#define TAPS_PT_GUARDED_BY(mu) TAPS_THREAD_ANNOTATION_(pt_guarded_by(mu))

/// Function requires the given capabilities to be held on entry (and keeps
/// them held on exit).
#define TAPS_REQUIRES(...) \
  TAPS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the given capabilities (held on exit, not on entry).
#define TAPS_ACQUIRE(...) \
  TAPS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the given capabilities (held on entry, not on exit).
#define TAPS_RELEASE(...) \
  TAPS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `ret`.
#define TAPS_TRY_ACQUIRE(ret, ...) \
  TAPS_THREAD_ANNOTATION_(try_acquire_capability(ret, __VA_ARGS__))

/// Runtime assertion that the calling thread already holds the capability
/// (tells the analysis so without performing an acquisition).
#define TAPS_ASSERT_CAPABILITY(...) \
  TAPS_THREAD_ANNOTATION_(assert_capability(__VA_ARGS__))

/// Function must NOT be called while holding the given capabilities
/// (deadlock / recursive-lock prevention).
#define TAPS_EXCLUDES(...) TAPS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Declares a lock-ordering edge for deadlock detection.
#define TAPS_ACQUIRED_BEFORE(...) \
  TAPS_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define TAPS_ACQUIRED_AFTER(...) \
  TAPS_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define TAPS_RETURN_CAPABILITY(mu) TAPS_THREAD_ANNOTATION_(lock_returned(mu))

/// Escape hatch: body is deliberately not analyzed. Every use must carry a
/// comment explaining why the analysis cannot see the invariant.
#define TAPS_NO_THREAD_SAFETY_ANALYSIS \
  TAPS_THREAD_ANNOTATION_(no_thread_safety_analysis)
