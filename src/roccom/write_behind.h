#pragma once
/// \file write_behind.h
/// \brief The local write-behind worker shared by both overlap mechanisms
/// that run on a compute process: T-Rochdf (paper §6.2) and the client half
/// of Rocpanda's active-buffering hierarchy (§6.1).
///
/// post() marshals a request's panes into pooled buffers (the one copy,
/// so the caller may reuse its blocks at once) and queues them.  One worker
/// runs the jobs in order through the owner's `run` callback (T-Rochdf
/// writes its file, the client ships to its server), then the idle
/// callback once the queue empties (T-Rochdf closes its file).  The first
/// exception either callback throws is kept and rethrown by every later
/// post() and drain(): a failed background write reaches the application
/// from its next write_attribute or sync, never as std::terminate.

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "comm/env.h"
#include "roccom/io_service.h"
#include "telemetry/trace_context.h"
#include "util/buffer.h"
#include "util/thread_annotations.h"

namespace roc::roccom {

class WriteBehind {
 public:
  /// One buffered write request.
  struct Job {
    IoRequest req;
    std::vector<SharedBuffer> blocks;  ///< WireBlock bytes, one per pane.
    uint64_t bytes = 0;                ///< Sum of the blocks' sizes.
    /// The poster's causal context, for `run` to re-adopt.
    telemetry::TraceContext ctx;
  };

  struct Posted {
    uint64_t bytes = 0;  ///< Marshalled bytes.
    uint64_t waits = 0;  ///< Back-pressure waits.
  };

  using RunFn = std::function<void(const Job&)>;
  using IdleFn = std::function<void()>;

  /// Spawns the worker through `env`.  `category` is the owner's trace
  /// category (a string literal) for the `marshal` and `backpressure`
  /// spans and for log lines; `thread_name` names the worker.  `on_idle`
  /// may be empty.
  WriteBehind(comm::Env& env, const char* category, const char* thread_name,
              RunFn run, IdleFn on_idle = {});
  /// drain(), then stops and joins the worker.  Never throws: a background
  /// failure is logged instead.
  ~WriteBehind();

  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;

  /// Marshals `req`'s attribute of every pane, charges the copy once and
  /// queues the job, first waiting while the queued bytes would pass
  /// `capacity` and the worker has work (back-pressure).  Calling thread
  /// only.  A kept failure is rethrown before the job is queued.
  Posted post(const IoRequest& req, const std::vector<const Pane*>& panes,
              uint64_t capacity = UINT64_MAX) ROC_EXCLUDES(gate_);

  /// Blocks until every posted job has run and the idle callback after
  /// them has returned.  Returns whether it had to wait.
  bool drain() ROC_EXCLUDES(gate_);

 private:
  void worker_loop() ROC_EXCLUDES(gate_);

  comm::Env& env_;
  const char* category_;
  RunFn run_;
  IdleFn on_idle_;

  BufferPool pool_;       ///< Internally synchronized.
  BufferChain scratch_;   ///< Refilled per pane; calling thread only.

  // gate_ is the capability the ROC_GUARDED_BY annotations refer to;
  // gate_storage_ only owns it.
  std::unique_ptr<comm::Gate> gate_storage_;
  comm::Gate* const gate_;
  std::deque<Job> queue_ ROC_GUARDED_BY(gate_);
  uint64_t queued_bytes_ ROC_GUARDED_BY(gate_) = 0;
  /// A job is running, or ran and the idle callback has not run since.
  bool busy_ ROC_GUARDED_BY(gate_) = false;
  bool stop_ ROC_GUARDED_BY(gate_) = false;
  std::exception_ptr failure_ ROC_GUARDED_BY(gate_);  ///< The first one.
  std::unique_ptr<comm::Worker> worker_;
};

}  // namespace roc::roccom
