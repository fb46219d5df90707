#pragma once
/// \file check_hooks.h
/// \brief Instrumentation points for the deterministic concurrency checker.
///
/// The checker (src/check/) observes the program through a single global
/// `Hooks` sink.  Sync wrappers (roc::Mutex, roc::CondVar, comm::Gate),
/// the message layer (comm::MailboxComm, under ThreadComm and SimComm) and
/// roc::Thread call into it at every happens-before-relevant event; hot
/// shared structures mark their accesses with ROC_CHECK_SHARED_READ /
/// ROC_CHECK_SHARED_WRITE.
///
/// When built with -DROCPIO_CHECK=OFF the macros expand to nothing and this
/// header contributes zero code to the hot path.  When ON but no checker
/// session is installed, each hook is one relaxed atomic load and a
/// branch.
///
/// This header is deliberately dependency-free (usable from util, comm,
/// sim and the I/O libraries without cycles).

#if defined(ROCPIO_CHECK)
#include <atomic>
#include <cstdint>
#include <source_location>
#endif

namespace roc::check {

#if defined(ROCPIO_CHECK)

/// Event sink installed by check::Session (src/check/checker.h).  All
/// methods may be called concurrently from any thread; implementations
/// must be self-synchronizing and must NOT log through roc::log (the
/// logger locks a roc::Mutex, which would re-enter these hooks).
class Hooks {
 public:
  virtual ~Hooks() = default;

  /// A mutex/gate identified by `m` was acquired by the calling thread.
  virtual void lock_acquire(const void* m, const char* name,
                            const char* file, unsigned line) = 0;
  /// ... released.
  virtual void lock_release(const void* m) = 0;
  /// ... destroyed: retire its state (addresses get recycled).
  virtual void lock_destroy(const void* m) = 0;

  /// CondVar/Gate wait: the mutex is released for the duration of the
  /// wait.  wait_begin models the release edge; wait_end the re-acquire.
  virtual void wait_begin(const void* m) = 0;
  virtual void wait_end(const void* m, const char* name,
                        const char* file, unsigned line) = 0;

  /// Message / thread-lifetime happens-before: the sender publishes its
  /// clock under `token` (from next_token()); the receiver joins it.
  virtual void packet_send(uint64_t token) = 0;
  virtual void packet_recv(uint64_t token) = 0;

  /// A read/write of an annotated shared cell (race-detector input).
  virtual void shared_access(const void* cell, const char* what, bool write,
                             const char* file, unsigned line) = 0;

  /// A point where the schedule explorer may inject a preemption
  /// (mutex acquire, comm hop, vfs write).  `kind` labels the site class.
  virtual void preemption_point(const char* kind) = 0;
};

namespace detail {
extern std::atomic<Hooks*> g_hooks;
}  // namespace detail

/// Currently installed sink, or nullptr.
inline Hooks* hooks() {
  return detail::g_hooks.load(std::memory_order_acquire);
}

/// Installs `h` (nullptr to uninstall).  Returns the previous sink.
/// Callers must ensure no hook is in flight when swapping (in practice:
/// install before spawning instrumented threads, uninstall after join).
Hooks* set_hooks(Hooks* h);

/// Process-unique token for packet_send/packet_recv pairing.
uint64_t next_token();

#define ROC_CHECKHOOK_(stmt)                                      \
  do {                                                            \
    if (::roc::check::Hooks* roc_chk_ = ::roc::check::hooks()) {  \
      roc_chk_->stmt;                                             \
    }                                                             \
  } while (0)

#define ROC_CHECK_SHARED_READ(cell, what)                                     \
  ROC_CHECKHOOK_(shared_access((cell), (what), false,                         \
                               std::source_location::current().file_name(),   \
                               std::source_location::current().line()))
#define ROC_CHECK_SHARED_WRITE(cell, what)                                    \
  ROC_CHECKHOOK_(shared_access((cell), (what), true,                          \
                               std::source_location::current().file_name(),   \
                               std::source_location::current().line()))
#define ROC_CHECK_PREEMPT(kind) ROC_CHECKHOOK_(preemption_point(kind))

#else  // !ROCPIO_CHECK

#define ROC_CHECKHOOK_(stmt) \
  do {                       \
  } while (0)
#define ROC_CHECK_SHARED_READ(cell, what) \
  do {                                    \
  } while (0)
#define ROC_CHECK_SHARED_WRITE(cell, what) \
  do {                                     \
  } while (0)
#define ROC_CHECK_PREEMPT(kind) \
  do {                          \
  } while (0)

#endif  // ROCPIO_CHECK

}  // namespace roc::check
