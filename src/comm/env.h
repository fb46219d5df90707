#pragma once
/// \file env.h
/// \brief Execution-environment services beyond message passing.
///
/// The I/O libraries need a few host services: a clock, a way to consume
/// CPU time (workload modelling), an auxiliary worker "thread" on the same
/// processor (T-Rochdf's background I/O thread), and a monitor (mutex +
/// condition variable) to coordinate with it.  Real mode backs these with
/// std::thread primitives; the simulator backs them with virtual-time
/// equivalents so the identical library code runs on both substrates
/// (DESIGN.md §5).

#include <functional>
#include <memory>
#include <source_location>

#include "util/check_hooks.h"
#include "util/thread_annotations.h"

namespace roc::comm {

/// A monitor: mutual exclusion + condition waiting, in the style of
/// std::condition_variable.  Users must follow the predicate-loop idiom:
///
///   gate->lock();
///   while (!pred) gate->wait();
///   ...
///   gate->unlock();
///
/// notify_all() may be called with or without the lock held.
///
/// Gate is a thread-safety *capability*: fields coordinated through a gate
/// are declared ROC_GUARDED_BY(gate_) and Clang Thread Safety Analysis
/// verifies every access happens with the gate held.  The public methods
/// are non-virtual wrappers that carry the annotations and the concurrency
/// checker's hooks (ROCPIO_CHECK); implementations (RealGate, SimGate)
/// override the protected do_* primitives.  The hooks matter even for
/// SimGate, whose do_lock/do_unlock are no-ops under cooperative
/// scheduling: the checker still needs the gate's release->acquire
/// happens-before edges to understand the protocol.
class ROC_CAPABILITY("gate") Gate {
 public:
  virtual ~Gate() { ROC_CHECKHOOK_(lock_destroy(this)); }

  /// Names the gate for diagnostics and for rocanalyze (whose R5 graph
  /// nodes carry the same runtime names).  `name` must outlive the gate;
  /// call once, right after construction.
  void set_name(const char* name) { name_ = name; }
  [[nodiscard]] const char* name() const { return name_; }

  void lock(std::source_location loc = std::source_location::current())
      ROC_ACQUIRE() ROC_NO_THREAD_SAFETY_ANALYSIS {
    ROC_CHECK_PREEMPT("gate.lock");
    do_lock();
    ROC_CHECKHOOK_(lock_acquire(this, name_, loc.file_name(), loc.line()));
    (void)loc;
  }

  void unlock() ROC_RELEASE() ROC_NO_THREAD_SAFETY_ANALYSIS {
    ROC_CHECKHOOK_(lock_release(this));
    do_unlock();
  }

  /// Atomically releases the lock, waits for a notify, re-acquires.  The
  /// gate is held on entry and held again on return.
  void wait(std::source_location loc = std::source_location::current())
      ROC_REQUIRES(this) ROC_NO_THREAD_SAFETY_ANALYSIS {
    ROC_CHECKHOOK_(wait_begin(this));
    do_wait();
    ROC_CHECKHOOK_(wait_end(this, name_, loc.file_name(), loc.line()));
    (void)loc;
  }

  /// May be called with or without the lock held.
  void notify_all() { do_notify_all(); }

 protected:
  virtual void do_lock() = 0;
  virtual void do_unlock() = 0;
  virtual void do_wait() = 0;
  virtual void do_notify_all() = 0;

 private:
  const char* name_ = "gate";
};

/// RAII lock for a Gate.
class ROC_SCOPED_CAPABILITY GateLock {
 public:
  explicit GateLock(Gate& g) ROC_ACQUIRE(g) : g_(g) { g.lock(); }
  ~GateLock() ROC_RELEASE() { g_.unlock(); }
  GateLock(const GateLock&) = delete;
  GateLock& operator=(const GateLock&) = delete;

 private:
  Gate& g_;
};

/// A joinable auxiliary worker running on the same processor as its
/// spawner.
class Worker {
 public:
  virtual ~Worker() = default;
  /// Blocks until the worker body returns.  Must be called exactly once.
  virtual void join() = 0;
};

/// Per-process environment.
class Env {
 public:
  virtual ~Env() = default;

  /// Seconds since an arbitrary epoch (wall clock or virtual clock).
  [[nodiscard]] virtual double now() = 0;

  /// Consumes `seconds` of CPU time on this processor.  In the simulator
  /// this is where the SMP/OS-noise node model applies (DESIGN.md §2).
  virtual void compute(double seconds) = 0;

  /// Accounts for a local memory copy of `bytes` (buffering, marshalling).
  /// Real mode: no-op — the copy itself already took wall time.  Simulated
  /// mode: advances the virtual clock by bytes / memory-bandwidth.
  virtual void charge_local_copy(uint64_t bytes) = 0;

  /// Spawns a worker sharing memory with the caller.  The worker must be
  /// joined before the Env is destroyed.
  [[nodiscard]] virtual std::unique_ptr<Worker> spawn_worker(
      std::function<void()> body) = 0;

  [[nodiscard]] virtual std::unique_ptr<Gate> make_gate() = 0;
};

/// Real-mode environment: wall clock, sleeping compute, std::thread
/// workers, std::mutex/condition_variable gates.
class RealEnv final : public Env {
 public:
  [[nodiscard]] double now() override;
  void compute(double seconds) override;
  void charge_local_copy(uint64_t) override {}
  [[nodiscard]] std::unique_ptr<Worker> spawn_worker(
      std::function<void()> body) override;
  [[nodiscard]] std::unique_ptr<Gate> make_gate() override;
};

}  // namespace roc::comm
