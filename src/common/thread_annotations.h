#ifndef STEDB_COMMON_THREAD_ANNOTATIONS_H_
#define STEDB_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>
#include <shared_mutex>

/// Clang Thread Safety Analysis for the repo's lock disciplines.
///
/// Every mutex-holding class in src/ declares its lock as one of the
/// capability-annotated wrappers below (stedb::Mutex / stedb::SharedMutex)
/// and marks the state it protects with STEDB_GUARDED_BY, so the
/// conventions BUILDING.md states in prose — which thread may touch what,
/// under which lock, in which mode — are checked at compile time by the
/// clang lane (`-Wthread-safety -Werror`; see cmake/StedbWarnings.cmake).
/// Under gcc (which has no such analysis) every macro expands to nothing
/// and the wrappers are zero-cost shims over the std primitives.
///
/// This header is the ONLY place thread-safety attributes are spelled out
/// and the only file allowed to suppress the analysis; `stedb_lint`'s
/// mutex-annotation rule rejects raw std::mutex / std::shared_mutex
/// declarations anywhere else in src/.
///
/// Cheat sheet (see BUILDING.md "Static analysis" for the full story):
///  * STEDB_GUARDED_BY(mu)   on a member: reads need mu held (shared is
///    enough), writes need it held exclusively.
///  * STEDB_REQUIRES(mu)     on a function: callers must already hold mu
///    exclusively (REQUIRES_SHARED: at least shared).
///  * STEDB_ACQUIRE/RELEASE  on a function: it takes/drops the lock.
///  * STEDB_EXCLUDES(mu)     on a function: callers must NOT hold mu
///    (guards against self-deadlock on non-reentrant locks).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define STEDB_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef STEDB_THREAD_ANNOTATION__
#define STEDB_THREAD_ANNOTATION__(x)  // not clang: no-op
#endif

#define STEDB_CAPABILITY(x) STEDB_THREAD_ANNOTATION__(capability(x))
#define STEDB_SCOPED_CAPABILITY STEDB_THREAD_ANNOTATION__(scoped_lockable)
#define STEDB_GUARDED_BY(x) STEDB_THREAD_ANNOTATION__(guarded_by(x))
#define STEDB_PT_GUARDED_BY(x) STEDB_THREAD_ANNOTATION__(pt_guarded_by(x))
#define STEDB_ACQUIRED_BEFORE(...) \
  STEDB_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define STEDB_ACQUIRED_AFTER(...) \
  STEDB_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define STEDB_REQUIRES(...) \
  STEDB_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define STEDB_REQUIRES_SHARED(...) \
  STEDB_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define STEDB_ACQUIRE(...) \
  STEDB_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define STEDB_ACQUIRE_SHARED(...) \
  STEDB_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define STEDB_RELEASE(...) \
  STEDB_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define STEDB_RELEASE_SHARED(...) \
  STEDB_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define STEDB_TRY_ACQUIRE(...) \
  STEDB_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define STEDB_TRY_ACQUIRE_SHARED(...) \
  STEDB_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))
#define STEDB_EXCLUDES(...) \
  STEDB_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define STEDB_ASSERT_CAPABILITY(x) \
  STEDB_THREAD_ANNOTATION__(assert_capability(x))
#define STEDB_RETURN_CAPABILITY(x) STEDB_THREAD_ANNOTATION__(lock_returned(x))
#define STEDB_NO_THREAD_SAFETY_ANALYSIS \
  STEDB_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace stedb {

/// std::mutex as a named capability. Same size and cost (the analysis is
/// purely compile-time); `native()` exposes the wrapped mutex for
/// std::condition_variable waits, which require a std::unique_lock —
/// only ever call it through UniqueMutexLock::native(), while the
/// capability is held.
class STEDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() STEDB_ACQUIRE() { mu_.lock(); }
  void unlock() STEDB_RELEASE() { mu_.unlock(); }
  bool try_lock() STEDB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// std::shared_mutex as a named capability: exclusive for writers,
/// shared for readers (the serve layer's readers-vs-Poll discipline).
class STEDB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() STEDB_ACQUIRE() { mu_.lock(); }
  void unlock() STEDB_RELEASE() { mu_.unlock(); }
  void lock_shared() STEDB_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() STEDB_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over Mutex — the annotated std::lock_guard.
/// The std::adopt_lock overload takes ownership of an already-held lock
/// (the try_lock() + adopt idiom in TrySharedParallelFor).
class STEDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) STEDB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(Mutex& mu, std::adopt_lock_t) STEDB_REQUIRES(mu) : mu_(mu) {}
  ~MutexLock() STEDB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock that interoperates with condition variables via
/// native().
/// cv.wait(lk.native()) atomically releases and reacquires the mutex;
/// the analysis (correctly) treats the capability as held on both sides
/// of the wait, since waits only ever happen while it is held.
class STEDB_SCOPED_CAPABILITY UniqueMutexLock {
 public:
  explicit UniqueMutexLock(Mutex& mu) STEDB_ACQUIRE(mu)
      : lock_(mu.native()) {}
  ~UniqueMutexLock() STEDB_RELEASE() {}

  UniqueMutexLock(const UniqueMutexLock&) = delete;
  UniqueMutexLock& operator=(const UniqueMutexLock&) = delete;

  /// For std::condition_variable::wait/wait_for only.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// RAII shared (reader) lock over SharedMutex.
class STEDB_SCOPED_CAPABILITY SharedMutexLock {
 public:
  explicit SharedMutexLock(SharedMutex& mu) STEDB_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedMutexLock() STEDB_RELEASE() { mu_.unlock_shared(); }

  SharedMutexLock(const SharedMutexLock&) = delete;
  SharedMutexLock& operator=(const SharedMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock over SharedMutex.
class STEDB_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) STEDB_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() STEDB_RELEASE() { mu_.unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace stedb

#endif  // STEDB_COMMON_THREAD_ANNOTATIONS_H_
