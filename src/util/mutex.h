#pragma once
/// \file mutex.h
/// \brief Capability-annotated mutex / condition-variable wrappers.
///
/// All mutual exclusion in rocpio goes through these types instead of raw
/// `std::mutex` / `std::condition_variable` (enforced by `tools/lint.py`,
/// rule `raw-sync`).  The wrappers buy two things:
///
///  1. Static checking.  `roc::Mutex` is a Clang Thread Safety Analysis
///     *capability*: fields declared `ROC_GUARDED_BY(mutex_)` are verified
///     at compile time to only be touched with the mutex held
///     (`clang++ -Wthread-safety`, the `thread-safety` CI job).
///
///  2. Dynamic checking.  Each lock, unlock and wait reports to the
///     deterministic concurrency checker (src/check, `ROC_CHECKHOOK_`) as
///     a happens-before edge; TSan's deadlock detector checks lock order
///     and recursive acquisition.
///
/// With `-DROCPIO_CHECK=OFF` this compiles to exactly a `std::mutex`: the
/// checker hooks vanish and every method is a one-line inline forward.

#include <condition_variable>
#include <mutex>
#include <source_location>

#include "util/check_hooks.h"
#include "util/thread_annotations.h"

namespace roc {

/// A plain (non-recursive) mutex, annotated as a static-analysis
/// capability and instrumented by the concurrency checker's hooks.
class ROC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  /// `name` labels this mutex in diagnostics; rocanalyze R5 uses it as the
  /// lock's node name.
  explicit Mutex(const char* name) : name_(name) { (void)name_; }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  ~Mutex() { ROC_CHECKHOOK_(lock_destroy(this)); }

  void lock(std::source_location loc = std::source_location::current())
      ROC_ACQUIRE() ROC_NO_THREAD_SAFETY_ANALYSIS {
    ROC_CHECK_PREEMPT("mutex.lock");
    m_.lock();
    ROC_CHECKHOOK_(lock_acquire(this, name_, loc.file_name(), loc.line()));
    (void)loc;
  }

  void unlock() ROC_RELEASE() ROC_NO_THREAD_SAFETY_ANALYSIS {
    ROC_CHECKHOOK_(lock_release(this));
    m_.unlock();
  }

 private:
  friend class CondVar;
  std::mutex m_;
  const char* name_ = "mutex";
};

/// RAII lock for a roc::Mutex (the only way most code should lock one).
class ROC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m,
                     std::source_location loc = std::source_location::current())
      ROC_ACQUIRE(m)
      : m_(m) {
    m.lock(loc);
  }
  ~MutexLock() ROC_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// Condition variable paired with roc::Mutex.  Waits follow the predicate
/// loop idiom; the mutex must be held (statically checked) and is held
/// again when wait() returns.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& m, std::source_location loc = std::source_location::current())
      ROC_REQUIRES(m) ROC_NO_THREAD_SAFETY_ANALYSIS {
    // The caller holds m per the contract; adopt it for the wait and hand
    // it back afterwards.
    ROC_CHECKHOOK_(wait_begin(&m));
    std::unique_lock<std::mutex> lk(m.m_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // Caller still owns the lock after wait() returns.
    ROC_CHECKHOOK_(wait_end(&m, m.name_, loc.file_name(), loc.line()));
    (void)loc;
  }

  /// Waits until `pred()` holds (spurious-wakeup safe).
  template <typename Pred>
  void wait(Mutex& m, Pred pred) ROC_REQUIRES(m) {
    while (!pred()) wait(m);
  }

  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace roc
