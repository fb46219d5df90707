#pragma once
/// \file checker.h
/// \brief The concurrency-checker session: vector-clock race detection over
/// the ROC_CHECKHOOK_ event stream.
///
/// A Session implements check::Hooks.  Install one (install()), run a
/// scenario, uninstall, then inspect findings().  The detector is
/// FastTrack-flavoured happens-before:
///
///   * per-thread vector clock C_t;
///   * per-sync-object clock L_m: acquire joins C_t <- C_t ⊔ L_m, release
///     stores L_m <- C_t and ticks C_t (CondVar/Gate waits are a release
///     at wait_begin and an acquire at wait_end);
///   * per-packet clock for message send->receive and thread
///     spawn/join edges (packet_send publishes, packet_recv joins);
///   * per-cell shadow state: the last write epoch plus all reads since;
///     a read races a write that the reader's clock does not cover, a
///     write races both uncovered writes and uncovered reads.
///
/// Lock order is not checked here: rocanalyze R5 finds inversions
/// statically and TSan's deadlock detector finds them at runtime, across
/// the roccheck ctest sweeps too (EXPERIMENTS.md, "Mutation matrix").
///
/// Thread-safety: hooks may arrive from any thread; a session serializes
/// them behind one internal (uninstrumented) mutex.  Hooks never log and
/// never touch instrumented primitives, so they cannot re-enter.

#include <cstdint>
#include <map>
#include <mutex>  // LINT-ALLOW(raw-sync): the checker cannot instrument itself
#include <set>
#include <string>
#include <vector>

#include "check/vector_clock.h"
#include "util/check_hooks.h"

namespace roc::check {

class Explorer;

/// Where an event came from (file:line of the instrumented call site).
struct SourceSite {
  const char* file = "?";
  unsigned line = 0;
  [[nodiscard]] std::string str() const;
};

/// One confirmed data race.  `detail` is a human-readable multi-line
/// report; `key` is the deduplication identity (stable across replays).
struct Finding {
  std::string key;
  std::string summary;
  std::string detail;
};

class Session final : public Hooks {
 public:
  Session();
  ~Session() override;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Makes this session the global hook sink / removes it.  A session may
  /// only be installed while no instrumented threads are running.
  void install();
  void uninstall();

  /// The schedule explorer consulted at preemption points (borrowed; may
  /// be null).
  void set_explorer(Explorer* e) { explorer_ = e; }

  [[nodiscard]] std::vector<Finding> findings() const;
  [[nodiscard]] bool has_findings() const;
  /// Deterministic plain-text report of every finding ("" when clean).
  [[nodiscard]] std::string report() const;

  // --- Hooks ---------------------------------------------------------------
  void lock_acquire(const void* m, const char* name, const char* file,
                    unsigned line) override;
  void lock_release(const void* m) override;
  void lock_destroy(const void* m) override;
  void wait_begin(const void* m) override;
  void wait_end(const void* m, const char* name, const char* file,
                unsigned line) override;
  void packet_send(uint64_t token) override;
  void packet_recv(uint64_t token) override;
  void shared_access(const void* cell, const char* what, bool write,
                     const char* file, unsigned line) override;
  void preemption_point(const char* kind) override;

 private:
  struct ThreadState {
    VectorClock vc;
    std::vector<const void*> held;  ///< Locks held, in acquisition order.
  };
  struct Access {
    Tid tid = -1;
    uint64_t clock = 0;
    SourceSite site;
  };
  struct Cell {
    std::string name;
    bool has_write = false;
    Access last_write;
    std::map<Tid, Access> reads;  ///< Reads since the last write.
  };
  /// Dense per-session thread id of the calling thread (assigned on first
  /// event; requires mu_).
  Tid self_locked();
  ThreadState& state_of(Tid t);
  void do_acquire(Tid t, const void* m);
  void do_release(Tid t, const void* m);
  void add_finding_locked(std::string key, std::string summary,
                          std::string detail);
  void report_race_locked(const Cell& cell, const Access& prev,
                          bool prev_write, Tid tid, SourceSite site,
                          bool write);

  const uint64_t id_;  ///< Session generation for thread-id caching.
  Explorer* explorer_ = nullptr;
  bool installed_ = false;

  mutable std::mutex mu_;  // LINT-ALLOW(raw-sync): see file comment
  Tid next_tid_ = 0;
  std::vector<ThreadState> threads_;
  std::map<const void*, VectorClock> sync_;
  std::map<uint64_t, VectorClock> packets_;
  std::map<const void*, Cell> cells_;
  std::set<std::string> seen_keys_;
  std::vector<Finding> findings_;
};

}  // namespace roc::check
