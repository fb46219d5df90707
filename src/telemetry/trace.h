#pragma once
/// \file trace.h
/// \brief Timeline tracing: RAII spans and instant events, recorded into
/// one per-thread event ring that has two readers, the Chrome-tracing /
/// Perfetto export (collect_trace) and the flight-recorder dump (flight.h).
///
/// Usage:
///
///   void Server::write_item(...) {
///     ROC_TRACE_SPAN_D("server", "snapshot.background", item.base);
///     ...                        // span covers the enclosing scope
///   }
///   ROC_TRACE_INSTANT("server", "spill");
///
/// Recording is off by default; every macro starts with a relaxed atomic
/// load, so the disabled cost is a test-and-branch, and a thread that
/// records nothing gets no ring.  The bench_micro overhead pair bounds
/// the idle cost on the zero-copy hot path.
///
/// Timestamps come from telemetry::now() (clock.h): wall time normally,
/// *virtual* time when the simulator has installed its clock.
///
/// Causality.  Every open Span publishes itself as the calling thread's
/// current TraceContext (trace_context.h): nested spans become its
/// children, and contexts carried across comm envelopes, wire headers and
/// queued jobs stitch client, server and vfs spans into one trace, drawn
/// as flow arrows in the Chrome output.
///
/// Span categories (see DESIGN.md "Telemetry"): "client", "server",
/// "rochdf", "vfs", "sim", "log".  "snapshot.perceived" (caller-visible
/// cost) and "snapshot.background" (hidden writer cost) carry the snapshot
/// base name in `detail`; the per-snapshot timeline (timeline.h) keys on
/// them.
///
/// The ring.  Each recording thread owns one ring of kTraceRingCapacity
/// fixed-size events made of relaxed-atomic words: the writer never
/// blocks, and the flight dump can read it from a signal handler.  A span
/// writes a begin event when it opens (so a dump shows open spans) and the
/// completed span when it closes.  Details are stored inline, cut to
/// kTraceDetailBytes.  collect_trace() consumes events through a per-ring
/// cursor and skips begins; the dump consumes nothing.  An event the
/// writer wrapped over before or during a read counts in Trace::dropped
/// and is never returned torn.  An exited thread's ring stays in dumps
/// until, once collect_trace() has drained it, a new thread reuses it.
/// Rings are never freed.

#include <atomic>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/clock.h"
#include "telemetry/trace_context.h"

namespace roc::telemetry {

/// One recorded event.  `category` / `name` must be string literals (or
/// otherwise outlive collection); `detail` is an optional dynamic payload
/// shown as args.detail in the trace viewer.  trace_id groups the event
/// into a causal chain (0 = unlinked); span_id / parent_id encode the
/// chain's tree (parent_id references another event's span_id, possibly on
/// a different thread).
struct TraceEvent {
  const char* category = "";
  const char* name = "";
  std::string detail;
  double ts = 0.0;   ///< start, seconds on the telemetry clock
  double dur = -1.0; ///< seconds; < 0 marks an instant event
  int tid = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;   ///< 0 for instants
  std::uint64_t parent_id = 0;
};

/// What collect_trace() drained: each thread's events in order, the names
/// of those threads, and the count of events lost to ring overflow.
struct Trace {
  std::vector<TraceEvent> events;
  std::map<int, std::string> thread_names;
  std::uint64_t dropped = 0;

  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// Event slots per ring, oldest overwritten; a span takes two (begin, end).
inline constexpr std::size_t kTraceRingCapacity = 1u << 15;

/// Detail bytes kept inline per event; longer details are cut to this
/// length, ending in "...".
inline constexpr std::size_t kTraceDetailBytes = 64;

namespace detail {
extern std::atomic<bool> g_trace_enabled;

enum class EventKind : std::uint8_t {
  kSpanBegin,  ///< ts = start; read by the dump only
  kSpanEnd,    ///< ts = start, dur = length
  kInstant,
  kError,      ///< kError log lines and require failures
};

/// One event for the calling thread's ring.  `category` / `name` must be
/// string literals.
struct Event {
  EventKind kind = EventKind::kInstant;
  const char* category = "";
  const char* name = "";
  double ts = 0.0;
  double dur = -1.0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

/// Appends `ev` with `detail` to the calling thread's ring.  No-op when
/// recording is off.
void record(const Event& ev, std::string_view detail = {});

/// Rings registered so far, live or not (they are reused, never freed).
[[nodiscard]] std::size_t ring_count();
}  // namespace detail

/// Turns event recording on or off process-wide; this is the only switch
/// for both readers.  Enabling also installs the log mirror that records
/// kError log lines and the require observer that records (and, with a
/// dump path, dumps) require failures.
void set_trace_enabled(bool on);

[[nodiscard]] inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Names the calling thread in trace output and flight dumps ("rank 3",
/// "t-rochdf writer").  Last call wins; names longer than 63 bytes are
/// cut.  Allocates no ring.
void set_thread_name(std::string name);

/// Records an instant event on the calling thread's ring, stamped with its
/// current TraceContext.  No-op when recording is disabled.
void record_instant(const char* category, const char* name,
                    std::string detail = {});

/// Consumes every ring's undrained events (including rings of exited
/// threads).  Events already collected are not returned again.
[[nodiscard]] Trace collect_trace();

/// Restarts thread-id numbering, drops all uncollected events and resets
/// the trace/span id counters.  Two runs with deterministic thread
/// creation and event order (the sim substrate) then produce bit-identical
/// serialized traces.  Call between replays, after collect_trace().
void reset_trace_identity_for_replay();

/// RAII span: measures construction-to-destruction on the telemetry clock
/// and publishes itself as the thread's current TraceContext for the
/// duration.  Usually spelled via ROC_TRACE_SPAN.
class Span {
 public:
  Span(const char* category, const char* name, std::string detail = {})
      : category_(category), name_(name), detail_(std::move(detail)) {
    open();
  }
  ~Span() {
    if (start_ < 0.0) return;
    set_trace_context(parent_);
    record(detail::EventKind::kSpanEnd, now() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open() {
    if (!trace_enabled()) return;
    start_ = now();
    parent_ = current_trace_context();
    ctx_.trace_id =
        parent_.trace_id != 0 ? parent_.trace_id : alloc_trace_id();
    ctx_.span_id = alloc_span_id();
    set_trace_context(ctx_);
    record(detail::EventKind::kSpanBegin, -1.0);
  }

  void record(detail::EventKind kind, double dur) const {
    detail::record({kind, category_, name_, start_, dur, ctx_.trace_id,
                    ctx_.span_id, parent_.span_id},
                   detail_);
  }

  const char* category_;
  const char* name_;
  std::string detail_;
  TraceContext parent_{};
  TraceContext ctx_{};
  double start_ = -1.0;  // < 0: recording was off at construction
};

/// Writes labelled trace batches as one Chrome-tracing JSON object (load
/// in chrome://tracing or https://ui.perfetto.dev), one pid per batch,
/// timestamps in microseconds.  Cross-thread parent->child span edges emit
/// flow events (ph:"s" at the parent, ph:"f" bp:"e" at the child).
void write_chrome_trace(std::ostream& os,
                        const std::vector<std::pair<std::string, Trace>>& batches);

/// Convenience file writer for the above.
class TraceWriter {
 public:
  explicit TraceWriter(std::string path) : path_(std::move(path)) {}

  void add(std::string label, Trace trace) {
    batches_.emplace_back(std::move(label), std::move(trace));
  }

  /// Writes the file; returns false (and logs) on I/O failure.
  bool write() const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::vector<std::pair<std::string, Trace>> batches_;
};

}  // namespace roc::telemetry

#define ROC_TRACE_CONCAT_2_(a, b) a##b
#define ROC_TRACE_CONCAT_(a, b) ROC_TRACE_CONCAT_2_(a, b)

/// Span covering the enclosing scope.  `category` and `name` must be
/// string literals.
#define ROC_TRACE_SPAN(category, name) \
  ::roc::telemetry::Span ROC_TRACE_CONCAT_(roc_trace_span_, __LINE__) { \
    category, name                                                      \
  }

/// Span with a dynamic detail payload (e.g. the snapshot base name).  The
/// detail expression is evaluated only while recording is enabled.
#define ROC_TRACE_SPAN_D(category, name, detail)                        \
  ::roc::telemetry::Span ROC_TRACE_CONCAT_(roc_trace_span_, __LINE__) { \
    category, name,                                                     \
        ::roc::telemetry::trace_enabled() ? std::string(detail)         \
                                          : std::string()               \
  }

#define ROC_TRACE_INSTANT(category, name)               \
  do {                                                  \
    if (::roc::telemetry::trace_enabled())              \
      ::roc::telemetry::record_instant(category, name); \
  } while (0)

#define ROC_TRACE_INSTANT_D(category, name, detail)          \
  do {                                                       \
    if (::roc::telemetry::trace_enabled())                   \
      ::roc::telemetry::record_instant(category, name,       \
                                       std::string(detail)); \
  } while (0)
