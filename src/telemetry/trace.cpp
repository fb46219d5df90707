#include "telemetry/trace.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>
#include <unordered_map>

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#include "telemetry/flight.h"
#include "util/error.h"
#include "util/log.h"
#include "util/mutex.h"

namespace roc::telemetry {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

using detail::EventKind;

// --- the ring ---------------------------------------------------------------

// An event is kWordsPerEvent 64-bit words, each stored and loaded as one
// atomic op: ts, dur, category, name, trace id, span id, parent id, a meta
// word (kind | detail length << 8 | ordinal << 16), then the detail text.
// A thread name is text of the same size, NUL-terminated.
constexpr std::size_t kTextWords = kTraceDetailBytes / 8;
constexpr std::size_t kWordsPerEvent = 8 + kTextWords;

/// One thread's ring.  The owning thread is its only writer; event i lives
/// in slot i % kTraceRingCapacity.  `claimed` and `head` count the events
/// whose write has begun and finished, so a reader that copied event i can
/// tell whether a later write reached its slot meanwhile.  Words are plain
/// integers accessed through std::atomic_ref, so a ring's pages are
/// touched only as it fills.
struct Ring {
  std::atomic<std::uint64_t> claimed{0};
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> base{0};  ///< first event of the current owner
  std::atomic<int> tid{0};             ///< 0: owner must re-register
  std::atomic<bool> live{true};        ///< owned by a running thread
  Ring* next = nullptr;                ///< registry list; set before publish
  std::uint64_t ordinal = 0;  ///< owner only: non-begin events written
  // collect_trace()'s cursor, under Registry::mu: the next event to read
  // and the ordinal of the last event read.
  std::uint64_t drained = 0;
  std::uint64_t drained_ordinal = 0;
  std::uint64_t name[kTextWords] = {};
  std::uint64_t words[kTraceRingCapacity * kWordsPerEvent];
};

void put(std::uint64_t& word, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(word).store(v, std::memory_order_release);
}

std::uint64_t get(std::uint64_t& word) {
  return std::atomic_ref<std::uint64_t>(word).load(std::memory_order_acquire);
}

void pack(std::uint64_t* words, std::string_view s) {
  std::uint64_t text[kTextWords] = {};
  if (!s.empty()) std::memcpy(text, s.data(), std::min(s.size(), sizeof text));
  for (std::size_t w = 0; w < kTextWords; ++w) put(words[w], text[w]);
}

void unpack(std::uint64_t* words, char* out) {
  for (std::size_t w = 0; w < kTextWords; ++w) {
    const std::uint64_t word = get(words[w]);
    std::memcpy(out + w * 8, &word, 8);
  }
}

/// Rings of every thread that ever recorded, newest first.  A dump walks
/// it without locks, so rings are never unlinked or freed.
std::atomic<Ring*> g_rings{nullptr};

/// Serializes ring registration, collect_trace() and replay resets.
struct Registry {
  Mutex mu{"trace_rings"};
  int next_tid ROC_GUARDED_BY(mu) = 1;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives all threads
  return *r;
}

/// The calling thread's ring, and its name for every ring it owns.  The
/// destructor hands the ring back when the thread exits.
struct Owner {
  Ring* ring = nullptr;
  std::string name;
  ~Owner() {
    if (ring != nullptr) ring->live.store(false, std::memory_order_release);
  }
};

thread_local Owner t_owner;

/// The calling thread's ring.  Registering takes a fresh tid and a ring,
/// reusing one whose owner exited and whose events were all collected.
/// After a replay reset a live owner keeps its ring and takes a new tid.
Ring& this_ring() {
  Owner& owner = t_owner;
  if (owner.ring != nullptr &&
      owner.ring->tid.load(std::memory_order_relaxed) != 0)
    return *owner.ring;
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  Ring* ring = owner.ring;
  for (Ring* r = g_rings.load(std::memory_order_relaxed);
       r != nullptr && ring == nullptr; r = r->next) {
    if (!r->live.load(std::memory_order_acquire) &&
        r->drained == r->head.load(std::memory_order_relaxed))
      ring = r;
  }
  if (ring == nullptr) {
    ring = new Ring;  // never freed: a dump may read it at any time
    ring->next = g_rings.load(std::memory_order_relaxed);
    g_rings.store(ring, std::memory_order_release);
  }
  ring->live.store(true, std::memory_order_relaxed);
  ring->tid.store(reg.next_tid++, std::memory_order_relaxed);
  ring->base.store(ring->head.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  pack(ring->name, owner.name);
  owner.ring = ring;
  return *ring;
}

void write_event(Ring& r, const detail::Event& ev, std::string_view detail) {
  char cut[kTraceDetailBytes];
  if (detail.size() > kTraceDetailBytes) {
    std::memcpy(cut, detail.data(), kTraceDetailBytes - 3);
    std::memcpy(cut + kTraceDetailBytes - 3, "...", 3);
    detail = {cut, kTraceDetailBytes};
  }
  if (ev.kind != EventKind::kSpanBegin) ++r.ordinal;
  const std::uint64_t seq = r.head.load(std::memory_order_relaxed);
  // The claim is ordered before the slot's (release) stores, so a reader
  // that sees any of them also sees the claim.
  r.claimed.store(seq + 1, std::memory_order_relaxed);
  std::uint64_t* w = &r.words[(seq % kTraceRingCapacity) * kWordsPerEvent];
  put(w[0], std::bit_cast<std::uint64_t>(ev.ts));
  put(w[1], std::bit_cast<std::uint64_t>(ev.dur));
  put(w[2], reinterpret_cast<std::uintptr_t>(ev.category));
  put(w[3], reinterpret_cast<std::uintptr_t>(ev.name));
  put(w[4], ev.trace_id);
  put(w[5], ev.span_id);
  put(w[6], ev.parent_id);
  put(w[7], static_cast<std::uint64_t>(ev.kind) | detail.size() << 8 |
                r.ordinal << 16);
  pack(w + 8, detail);
  r.head.store(seq + 1, std::memory_order_release);
}

/// A copy of one event taken out of a ring.
struct Copy {
  detail::Event ev;
  std::uint64_t ordinal;
  std::size_t detail_len;
  char detail[kTraceDetailBytes];
};

/// Copies event `i` (< head) out of `r`.  False when a later write has
/// reached its slot, so the copy may be torn.  Async-signal-safe.
bool read_event(Ring& r, std::uint64_t i, Copy& out) {
  std::uint64_t* w = &r.words[(i % kTraceRingCapacity) * kWordsPerEvent];
  const std::uint64_t meta = get(w[7]);
  out.ev = {static_cast<EventKind>(meta & 0xff),
            reinterpret_cast<const char*>(get(w[2])),
            reinterpret_cast<const char*>(get(w[3])),
            std::bit_cast<double>(get(w[0])),
            std::bit_cast<double>(get(w[1])),
            get(w[4]),
            get(w[5]),
            get(w[6])};
  out.detail_len = std::min<std::size_t>((meta >> 8) & 0xff, kTraceDetailBytes);
  out.ordinal = meta >> 16;
  unpack(w + 8, out.detail);
  return r.claimed.load(std::memory_order_acquire) <= i + kTraceRingCapacity;
}

/// Moves `r`'s undrained events into `out`.  Begin events stay behind for
/// the dump; every other event not returned counts in `out.dropped`, found
/// from the gaps between the ordinals of the events read.
void drain(Ring& r, Trace& out) {
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  const int tid = r.tid.load(std::memory_order_relaxed);
  const std::size_t before = out.events.size();
  const std::uint64_t oldest =
      head - std::min<std::uint64_t>(head, kTraceRingCapacity);
  Copy c;
  for (std::uint64_t i = std::max(r.drained, oldest); i < head; ++i) {
    if (!read_event(r, i, c)) continue;
    const detail::Event& e = c.ev;
    const bool begin = e.kind == EventKind::kSpanBegin;
    out.dropped += c.ordinal - r.drained_ordinal - (begin ? 0 : 1);
    r.drained_ordinal = c.ordinal;
    if (begin) continue;
    const double dur = e.kind == EventKind::kSpanEnd ? e.dur : -1.0;
    out.events.push_back({e.category, e.name,
                          std::string(c.detail, c.detail_len), e.ts, dur, tid,
                          e.trace_id, e.span_id, e.parent_id});
  }
  r.drained = head;
  if (out.events.size() == before) return;
  char name[kTraceDetailBytes];
  unpack(r.name, name);
  name[sizeof name - 1] = '\0';
  if (name[0] != '\0') out.thread_names[tid] = name;
}

/// Records a point event stamped with the calling thread's context.
void record_point(EventKind kind, const char* category, const char* name,
                  std::string_view detail) {
  if (!trace_enabled()) return;
  const TraceContext ctx = current_trace_context();
  detail::record({kind, category, name, now(), -1.0, ctx.trace_id, 0,
                  ctx.span_id},
                 detail);
}

/// Mirrors error-level log lines into the ring, so timelines and crash
/// dumps show *when* things went wrong.
void log_mirror(roc::LogLevel level, const std::string& msg) {
  if (level == roc::LogLevel::kError)
    record_point(EventKind::kError, "log", "error", msg);
}

// Fixed-size dump path: a signal handler must be able to read it without
// allocation.  Length is published with release/acquire.
char g_dump_path[512];
std::atomic<std::size_t> g_dump_path_len{0};

void require_observer(const char* message) {
  if (!trace_enabled()) return;
  record_point(EventKind::kError, "require", "failure", message);
  // Auto-dump only when a destination was configured: require failures
  // are routine on error paths and must not litter the working directory.
  if (g_dump_path_len.load(std::memory_order_acquire) > 0) {
    flight::dump_now("require failure");
  }
}

// --- JSON output ----------------------------------------------------------

/// Writes `s` as a JSON string literal (quotes included) through
/// `put(char)`.  Escapes to pure ASCII, so a detail cut inside a
/// multi-byte sequence still makes valid JSON.  Async-signal-safe when
/// `put` is.
template <typename Put>
void put_json_string(const Put& put, const char* s, std::size_t len) {
  static const char* hex = "0123456789abcdef";
  put('"');
  for (std::size_t i = 0; i < len; ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c == '"' || c == '\\') {
      put('\\');
      put(static_cast<char>(c));
    } else if (c < 0x20 || c >= 0x7f) {
      for (const char e : {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xf]})
        put(e);
    } else {
      put(static_cast<char>(c));
    }
  }
  put('"');
}

std::string json_string(std::string_view s) {
  std::string out;
  put_json_string([&out](char c) { out += c; }, s.data(), s.size());
  return out;
}

// --- the flight dump --------------------------------------------------------

/// Buffered fd writer built on raw write(2); everything below is
/// async-signal-safe: no locks, no allocation, no stdio.
struct FdWriter {
  int fd;
  char buf[512];
  std::size_t n = 0;

  explicit FdWriter(int f) : fd(f) {}

  void flush() {
    std::size_t off = 0;
    while (off < n) {
      // Flight dumps must work from a signal handler; the vfs layer (and
      // its own spans) cannot be re-entered here.
      const auto k =
          ::write(fd, buf + off, n - off);  // LINT-ALLOW(raw-io): see above
      if (k <= 0) break;
      off += static_cast<std::size_t>(k);
    }
    n = 0;
  }

  void put_char(char c) {
    if (n == sizeof buf) flush();
    buf[n++] = c;
  }

  void put(const char* s) {
    for (std::size_t i = 0; s[i] != '\0'; ++i) put_char(s[i]);
  }

  void put_u64(std::uint64_t v) {
    char tmp[24];
    std::size_t i = sizeof tmp;
    do {
      tmp[--i] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    for (; i < sizeof tmp; ++i) put_char(tmp[i]);
  }

  void put_string(const char* s, std::size_t len) {
    put_json_string([this](char c) { put_char(c); }, s, len);
  }
};

constexpr const char* kKindNames[] = {"span_begin", "span_end", "instant",
                                      "error"};

/// One thread: its newest kDumpEventsPerThread events since the current
/// owner took the ring, skipping any the owner overwrites meanwhile.
void dump_one_ring(FdWriter& w, Ring& ring) {
  char name[kTraceDetailBytes];
  unpack(ring.name, name);
  w.put("{\"tid\":");
  w.put_u64(static_cast<std::uint64_t>(
      ring.tid.load(std::memory_order_relaxed)));
  w.put(",\"name\":");
  w.put_string(name, ::strnlen(name, sizeof name - 1));
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t base =
      std::min(ring.base.load(std::memory_order_relaxed), head);
  const std::uint64_t first =
      head - std::min<std::uint64_t>(head - base, flight::kDumpEventsPerThread);
  w.put(",\"dropped\":");
  w.put_u64(first - base);
  w.put(",\"events\":[");
  bool first_event = true;
  Copy c;
  for (std::uint64_t i = first; i < head; ++i) {
    if (!read_event(ring, i, c)) continue;
    const detail::Event& e = c.ev;
    const double ts = e.kind == EventKind::kSpanEnd ? e.ts + e.dur : e.ts;
    if (!first_event) w.put_char(',');
    first_event = false;
    w.put("{\"kind\":\"");
    const auto kind = static_cast<std::size_t>(e.kind);
    w.put(kind < std::size(kKindNames) ? kKindNames[kind] : "unknown");
    w.put("\",\"cat\":");
    w.put_string(e.category, ::strnlen(e.category, 128));
    w.put(",\"name\":");
    w.put_string(e.name, ::strnlen(e.name, 128));
    w.put(",\"ts_us\":");
    w.put_u64(ts > 0.0 ? static_cast<std::uint64_t>(ts * 1e6) : 0);
    w.put(",\"trace_id\":");
    w.put_u64(e.trace_id);
    if (c.detail_len > 0) {
      w.put(",\"detail\":");
      w.put_string(c.detail, c.detail_len);
    }
    w.put_char('}');
  }
  w.put("]}");
}

std::atomic<bool> g_handlers_installed{false};
std::atomic<bool> g_crash_dumping{false};

void crash_handler(int sig) {
  if (!g_crash_dumping.exchange(true))
    flight::dump_now(sig == SIGSEGV ? "signal: SIGSEGV" : "signal: SIGABRT");
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

namespace detail {

void record(const Event& ev, std::string_view detail) {
  if (trace_enabled()) write_event(this_ring(), ev, detail);
}

std::size_t ring_count() {
  std::size_t n = 0;
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next)
    ++n;
  return n;
}

}  // namespace detail

void set_trace_enabled(bool on) {
  if (on) {
    roc::detail::set_log_mirror(&log_mirror);
    roc::detail::set_require_observer(&require_observer);
  }
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void set_thread_name(std::string name) {
  if (name.size() >= kTraceDetailBytes) name.resize(kTraceDetailBytes - 1);
  Owner& owner = t_owner;
  owner.name = std::move(name);
  if (owner.ring != nullptr) pack(owner.ring->name, owner.name);
}

void record_instant(const char* category, const char* name,
                    std::string detail) {
  record_point(EventKind::kInstant, category, name, detail);
}

Trace collect_trace() {
  Trace out;
  MutexLock lock(registry().mu);
  // In tid order, so deterministic replays serialize identically whichever
  // rings their threads reused.
  std::vector<Ring*> rings;
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next)
    rings.push_back(r);
  std::ranges::sort(rings, {}, [](const Ring* r) {
    return r->tid.load(std::memory_order_relaxed);
  });
  for (Ring* r : rings) drain(*r, out);
  return out;
}

void reset_trace_identity_for_replay() {
  (void)collect_trace();  // uncollected events are intentionally dropped
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  reg.next_tid = 1;
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next)
    r->tid.store(0, std::memory_order_relaxed);
  reset_trace_ids();
}

void write_chrome_trace(
    std::ostream& os,
    const std::vector<std::pair<std::string, Trace>>& batches) {
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ',';
    first = false;
  };
  int pid = 0;
  for (const auto& [label, trace] : batches) {
    ++pid;
    comma();
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":"
       << json_string(label) << "}}";
    for (const auto& [tid, tname] : trace.thread_names) {
      comma();
      os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":"
         << json_string(tname) << "}}";
    }
    // Index spans by id for flow-event (causal arrow) emission below.
    std::unordered_map<std::uint64_t, const TraceEvent*> by_span;
    for (const TraceEvent& ev : trace.events) {
      if (ev.dur >= 0.0 && ev.span_id != 0) by_span[ev.span_id] = &ev;
    }
    for (const TraceEvent& ev : trace.events) {
      comma();
      // Chrome tracing wants microseconds.
      const double ts_us = ev.ts * 1e6;
      os << "{\"pid\":" << pid << ",\"tid\":" << ev.tid << ",\"cat\":"
         << json_string(ev.category) << ",\"name\":"
         << json_string(ev.name) << ",\"ts\":" << ts_us;
      if (ev.dur >= 0.0) {
        os << ",\"ph\":\"X\",\"dur\":" << ev.dur * 1e6;
      } else {
        os << ",\"ph\":\"i\",\"s\":\"t\"";
      }
      const char* const open_args = ",\"args\":{";
      const char* sep = open_args;
      const auto arg = [&](const char* key) -> std::ostream& {
        os << sep << '"' << key << "\":";
        sep = ",";
        return os;
      };
      if (!ev.detail.empty()) arg("detail") << json_string(ev.detail);
      if (ev.trace_id != 0) arg("trace_id") << ev.trace_id;
      if (ev.span_id != 0) arg("span_id") << ev.span_id;
      if (ev.parent_id != 0) arg("parent_id") << ev.parent_id;
      os << (sep == open_args ? "}" : "}}");
    }
    // Causal arrows: one flow start ("s") at the parent span and one flow
    // finish ("f", binding to the enclosing slice) at the child, for every
    // cross-thread parent->child edge.  Same-thread nesting needs no arrow.
    for (const TraceEvent& ev : trace.events) {
      if (ev.dur < 0.0 || ev.parent_id == 0) continue;
      const auto it = by_span.find(ev.parent_id);
      if (it == by_span.end()) continue;
      const TraceEvent& parent = *it->second;
      if (parent.tid == ev.tid) continue;
      // The start timestamp is clamped into the parent span so viewers
      // accept the pair (s.ts <= f.ts always holds: child.ts >= s.ts).
      const double s_ts = std::clamp(ev.ts, parent.ts, parent.ts + parent.dur);
      comma();
      os << "{\"ph\":\"s\",\"id\":" << ev.span_id << ",\"pid\":" << pid
         << ",\"tid\":" << parent.tid << ",\"ts\":" << s_ts * 1e6
         << ",\"cat\":\"flow\",\"name\":\"causal\"}";
      comma();
      os << "{\"ph\":\"f\",\"bp\":\"e\",\"id\":" << ev.span_id
         << ",\"pid\":" << pid << ",\"tid\":" << ev.tid
         << ",\"ts\":" << ev.ts * 1e6
         << ",\"cat\":\"flow\",\"name\":\"causal\"}";
    }
  }
  os << "]}";
}

bool TraceWriter::write() const {
  // Plain ofstream, not vfs: the trace file is tool output on the host
  // filesystem, and vfs itself carries trace spans (layering).
  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  if (!os) {
    ROC_ERROR << "trace: cannot open " << path_ << " for writing";
    return false;
  }
  write_chrome_trace(os, batches_);
  os.flush();
  if (!os) {
    ROC_ERROR << "trace: write to " << path_ << " failed";
    return false;
  }
  return true;
}

namespace flight {

void set_dump_path(const char* path) {
  g_dump_path_len.store(0, std::memory_order_release);
  if (path == nullptr) return;
  const std::size_t n = ::strnlen(path, sizeof g_dump_path - 1);
  std::memcpy(g_dump_path, path, n);
  g_dump_path[n] = '\0';
  g_dump_path_len.store(n, std::memory_order_release);
}

void dump_to_fd(int fd, const char* reason) {
  FdWriter w(fd);
  w.put("{\"flight_recorder\":true,\"reason\":");
  const char* r = reason != nullptr ? reason : "";
  w.put_string(r, ::strnlen(r, 256));
  w.put(",\"threads\":[");
  for (Ring* ring = g_rings.load(std::memory_order_acquire); ring != nullptr;
       ring = ring->next) {
    dump_one_ring(w, *ring);
    if (ring->next != nullptr) w.put_char(',');
  }
  w.put("]}");
  w.flush();
}

bool dump_now(const char* reason, const char* path) {
  if (path == nullptr)
    path = g_dump_path_len.load(std::memory_order_acquire) > 0
               ? g_dump_path
               : "rocpio-flight.json";
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  dump_to_fd(fd, reason);
  ::close(fd);
  return true;
}

void install_signal_handlers() {
  if (g_handlers_installed.exchange(true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = &crash_handler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGSEGV, &sa, nullptr);
  sigaction(SIGABRT, &sa, nullptr);
}

}  // namespace flight

}  // namespace roc::telemetry
