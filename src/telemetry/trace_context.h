#pragma once
/// \file trace_context.h
/// \brief Causal trace context: the (trace_id, span_id) pair a thread is
/// currently executing under.
///
/// A *trace* is one causal chain — typically a single write_attribute()
/// request — stitched across threads and across the Comm substrate.  Every
/// open Span publishes itself as the calling thread's current context;
/// child spans, instants, comm envelopes and wire headers copy it, so the
/// server-side background write triggered by a client request carries the
/// client's trace id and parent span id and the Chrome trace can draw flow
/// arrows between them (trace.h).
///
/// comm::Message and the substrate envelopes embed the struct by value.
///
/// Id allocation is a process-global counter, resettable via
/// reset_trace_ids() so deterministic replays (sim clock) mint identical
/// ids — see reset_trace_identity_for_replay() in trace.h.

#include <atomic>
#include <cstdint>

namespace roc::telemetry {

/// The causal coordinates a piece of work executes under.  trace_id == 0
/// means "not part of any trace"; span_id is then meaningless.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< innermost open span (parent for children)

  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

namespace detail {
inline thread_local TraceContext g_trace_context{};
inline std::atomic<std::uint64_t> g_next_trace_id{1};
inline std::atomic<std::uint64_t> g_next_span_id{1};
}  // namespace detail

[[nodiscard]] inline TraceContext current_trace_context() {
  return detail::g_trace_context;
}

inline void set_trace_context(TraceContext ctx) {
  detail::g_trace_context = ctx;
}

/// Mints a fresh trace id (first call returns 1).
inline std::uint64_t alloc_trace_id() {
  return detail::g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

/// Mints a fresh span id (ids are unique across traces).
inline std::uint64_t alloc_span_id() {
  return detail::g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

/// Restarts both id counters at 1.  Only meaningful between runs whose
/// thread interleaving is deterministic (the sim substrate).
inline void reset_trace_ids() {
  detail::g_next_trace_id.store(1, std::memory_order_relaxed);
  detail::g_next_span_id.store(1, std::memory_order_relaxed);
}

/// Adopts a context carried across a thread or process hop (comm Message,
/// wire header, queued job) for the current scope; restores the previous
/// context on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx)
      : prev_(current_trace_context()) {
    set_trace_context(ctx);
  }
  ~ScopedTraceContext() { set_trace_context(prev_); }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

}  // namespace roc::telemetry
