/// \file telemetry_test.cpp
/// \brief Tests for src/telemetry/: trace spans on the swappable clock,
/// Chrome-trace JSON well-formedness (checked with a strict JSON parser),
/// the per-snapshot timeline arithmetic (synthetic traces and the real
/// T-Rochdf pipeline on the simulator), the flight dump and the ring
/// registry, the log satellites (ROC_LOG single evaluation,
/// ScopedLogCapture, the error->instant mirror), and the exact values of
/// every service's Stats counters.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "roccom/block_wire.h"
#include "rochdf/rochdf.h"
#include "rocpanda/client.h"
#include "rocpanda/layout.h"
#include "rocpanda/server.h"
#include "sim/platform.h"
#include "sim/sim_comm.h"
#include "sim/sim_env.h"
#include "sim/sim_fs.h"
#include "sim/simulation.h"
#include "telemetry/clock.h"
#include "telemetry/flight.h"
#include "telemetry/timeline.h"
#include "telemetry/trace.h"
#include "util/error.h"
#include "util/log.h"
#include "util/log_capture.h"
#include "util/thread.h"

namespace roc::telemetry {
namespace {

// --- a strict JSON acceptor -------------------------------------------------
// Small recursive-descent validator (RFC 8259 grammar, no extensions): the
// trace files must load in chrome://tracing, so "mostly JSON" is not
// enough.  Returns false on any syntax violation, including trailing
// garbage, unescaped control characters and bad \u escapes.

class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    c.ws();
    if (!c.value()) return false;
    c.ws();
    return c.i_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& t) : t_(t) {}

  [[nodiscard]] bool eof() const { return i_ >= t_.size(); }
  [[nodiscard]] char peek() const { return t_[i_]; }
  bool eat(char c) {
    if (eof() || t_[i_] != c) return false;
    ++i_;
    return true;
  }
  void ws() {
    while (!eof() && (t_[i_] == ' ' || t_[i_] == '\t' || t_[i_] == '\n' ||
                      t_[i_] == '\r'))
      ++i_;
  }

  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p)
      if (!eat(*p)) return false;
    return true;
  }

  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool string() {
    if (!eat('"')) return false;
    while (!eof()) {
      const unsigned char c = static_cast<unsigned char>(t_[i_]);
      if (c == '"') {
        ++i_;
        return true;
      }
      if (c < 0x20) return false;  // raw control character
      if (c == '\\') {
        ++i_;
        if (eof()) return false;
        const char e = t_[i_];
        if (e == 'u') {
          ++i_;
          for (int k = 0; k < 4; ++k, ++i_)
            if (eof() || std::isxdigit(static_cast<unsigned char>(t_[i_])) == 0)
              return false;
          continue;
        }
        if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
            e != 'n' && e != 'r' && e != 't')
          return false;
        ++i_;
        continue;
      }
      ++i_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = i_;
    (void)eat('-');
    if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0)
      return false;
    if (!eat('0'))
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0)
        ++i_;
    if (!eof() && peek() == '.') {
      ++i_;
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0)
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0)
        ++i_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++i_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++i_;
      if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0)
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0)
        ++i_;
    }
    return i_ > start;
  }

  const std::string& t_;
  std::size_t i_ = 0;
};

TEST(JsonCheckerSelf, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker::valid(R"({"a": [1, -2.5e3, "x\n", true, null]})"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a": 1,})"));     // trailing comma
  EXPECT_FALSE(JsonChecker::valid("{\"a\": \"\t\"}"));  // raw control char
  EXPECT_FALSE(JsonChecker::valid(R"({"a": 01})"));     // leading zero
  EXPECT_FALSE(JsonChecker::valid(R"({"a": 1} x)"));    // trailing garbage
  EXPECT_FALSE(JsonChecker::valid(R"("bad \q escape")"));
}

// --- clock ------------------------------------------------------------------

class FixedClock final : public ClockSource {
 public:
  explicit FixedClock(double t) : t_(t) {}
  [[nodiscard]] double now() const override { return t_; }
  double t_;
};

TEST(Clock, ScopedClockInstallsAndRestores) {
  const double wall_before = now();
  {
    FixedClock fixed(1234.5);
    ScopedClock scoped(&fixed);
    EXPECT_DOUBLE_EQ(now(), 1234.5);
    fixed.t_ = 2000.0;
    EXPECT_DOUBLE_EQ(now(), 2000.0);
  }
  // Back on the wall clock: monotonic, and nowhere near the fake values.
  const double wall_after = now();
  EXPECT_GE(wall_after, wall_before);
  EXPECT_LT(wall_after, 1000.0);
}

// --- trace ------------------------------------------------------------------

/// Enables tracing for a scope and drops anything recorded before it.
struct ScopedTracing {
  ScopedTracing() {
    (void)collect_trace();
    set_trace_enabled(true);
  }
  ~ScopedTracing() { set_trace_enabled(false); }
};

TEST(TraceTest, SpanRecordsDurationOnTelemetryClock) {
  FixedClock fixed(10.0);
  ScopedClock scoped(&fixed);
  ScopedTracing tracing;
  set_thread_name("trace test");
  {
    Span span("test", "outer", "payload");
    fixed.t_ = 12.5;
  }
  record_instant("test", "mark");
  const Trace t = collect_trace();
  ASSERT_EQ(t.events.size(), 2u);
  const TraceEvent& span = t.events[0];
  EXPECT_STREQ(span.name, "outer");
  EXPECT_DOUBLE_EQ(span.ts, 10.0);
  EXPECT_DOUBLE_EQ(span.dur, 2.5);
  EXPECT_EQ(span.detail, "payload");
  EXPECT_LT(t.events[1].dur, 0.0);  // instant
  ASSERT_EQ(t.thread_names.count(span.tid), 1u);
  EXPECT_EQ(t.thread_names.at(span.tid), "trace test");
  EXPECT_EQ(t.dropped, 0u);
}

TEST(TraceTest, DisabledRecordsNothing) {
  (void)collect_trace();
  ASSERT_FALSE(trace_enabled());
  {
    ROC_TRACE_SPAN("test", "ignored");
    ROC_TRACE_INSTANT("test", "ignored");
  }
  EXPECT_TRUE(collect_trace().empty());
}

TEST(TraceTest, ChromeJsonIsStrictlyValidWithHostileStrings) {
  Trace t;
  TraceEvent e;
  e.category = "cat";
  e.name = "span";
  e.detail = "quote \" backslash \\ newline \n tab \t ctrl \x01 done";
  e.ts = 1.0;
  e.dur = 0.5;
  e.tid = 1;
  t.events.push_back(e);
  TraceEvent i = e;
  i.name = "instant";
  i.dur = -1.0;
  t.events.push_back(i);
  t.thread_names[1] = "thread \"one\"\\";

  std::ostringstream os;
  write_chrome_trace(os, {{"label \"A\"", t}, {"label B", Trace{}}});
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(TraceTest, WriterProducesLoadableFile) {
  Trace t;
  TraceEvent e;
  e.category = "c";
  e.name = "n";
  e.ts = 0.25;
  e.dur = 0.25;
  e.tid = 3;
  t.events.push_back(e);

  const std::string path =
      testing::TempDir() + "/telemetry_test_trace.json";
  TraceWriter w(path);
  w.add("run", std::move(t));
  ASSERT_TRUE(w.write());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(JsonChecker::valid(buf.str())) << buf.str();
  std::remove(path.c_str());
}

TraceEvent span_event(const char* cat, const char* name, std::string detail,
                      double ts, double dur, int tid) {
  TraceEvent e;
  e.category = cat;
  e.name = name;
  e.detail = std::move(detail);
  e.ts = ts;
  e.dur = dur;
  e.tid = tid;
  return e;
}

TEST(TraceTest, FlowEventsLinkCrossThreadParentChild) {
  // Parent span on tid 1; one child on tid 2 (cross-thread: needs an
  // arrow), one child on tid 1 (same-thread nesting: must NOT get one).
  Trace t;
  TraceEvent parent = span_event("client", "snapshot.perceived", "s", 0.0,
                                 4.0, 1);
  parent.trace_id = 7;
  parent.span_id = 100;
  TraceEvent remote = span_event("server", "snapshot.background", "s", 1.0,
                                 2.0, 2);
  remote.trace_id = 7;
  remote.span_id = 101;
  remote.parent_id = 100;
  TraceEvent local = span_event("client", "marshal", "", 0.5, 0.5, 1);
  local.trace_id = 7;
  local.span_id = 102;
  local.parent_id = 100;
  t.events.push_back(parent);
  t.events.push_back(remote);
  t.events.push_back(local);

  std::ostringstream os;
  write_chrome_trace(os, {{"flow", t}});
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;

  const auto count = [&json](const std::string& needle) {
    int n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1))
      ++n;
    return n;
  };
  // Exactly one s/f pair, carrying the child's span id, at the right
  // threads, binding to the enclosing slice.
  EXPECT_EQ(count("\"ph\":\"s\""), 1);
  EXPECT_EQ(count("\"ph\":\"f\""), 1);
  EXPECT_NE(json.find("{\"ph\":\"s\",\"id\":101,\"pid\":1,\"tid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"f\",\"bp\":\"e\",\"id\":101,\"pid\":1,"
                      "\"tid\":2"),
            std::string::npos);
  EXPECT_EQ(count("\"cat\":\"flow\""), 2);
  // The causal ids ride on the spans' args.
  EXPECT_NE(json.find("\"trace_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":101"), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\":100"), std::string::npos);
}

TEST(TraceTest, FlowStartIsClampedIntoTheParentWindow) {
  // A deferred child that starts AFTER its parent span closed: the flow
  // start must be clamped to the parent's end so viewers accept the pair.
  Trace t;
  TraceEvent parent = span_event("client", "snapshot.perceived", "s", 0.0,
                                 1.0, 1);
  parent.trace_id = 9;
  parent.span_id = 200;
  TraceEvent child = span_event("server", "snapshot.background", "s", 5.0,
                                1.0, 2);
  child.trace_id = 9;
  child.span_id = 201;
  child.parent_id = 200;
  t.events.push_back(parent);
  t.events.push_back(child);

  std::ostringstream os;
  write_chrome_trace(os, {{"clamp", t}});
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  // s at the parent's end (1.0 s = 1e6 us), f at the child's start.
  EXPECT_NE(json.find("{\"ph\":\"s\",\"id\":201,\"pid\":1,\"tid\":1,"
                      "\"ts\":1e+06"),
            std::string::npos)
      << json;
}

/// Two identical sim-clock runs, with reset_trace_identity_for_replay()
/// between them, must serialize to bit-identical Chrome traces: thread
/// ids, trace/span ids and (virtual) timestamps all restart.
TEST(TraceTest, SimReplaysSerializeBitIdentically) {
  const auto one_replay = [] {
    reset_trace_identity_for_replay();
    ScopedTracing tracing;
    sim::Platform p;
    p.node.cpus = 2;
    sim::Simulation sim(p);
    auto fs = std::make_shared<sim::SimFileSystem>(sim);
    auto world = std::make_shared<sim::SimWorld>(sim, 1);
    sim.add_process([world, fs](sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());
      roccom::Roccom com;
      auto& w = com.create_window("fluid");
      auto b = mesh::MeshBlock::structured(0, {8, 8, 8});
      mesh::add_fluid_schema(b);
      w.register_pane(b.id(), &b);

      rochdf::Options o;
      o.threaded = true;
      rochdf::Rochdf io(*comm, env, *fs, o);
      io.write_attribute(com, roccom::IoRequest{"fluid", "all", "rp", 0.0});
      ctx.compute(5.0);
      io.sync();
    });
    sim.run();
    std::ostringstream os;
    write_chrome_trace(os, {{"replay", collect_trace()}});
    return os.str();
  };

  const std::string first = one_replay();
  const std::string second = one_replay();
  EXPECT_TRUE(JsonChecker::valid(first)) << first;
  // Real causal content, not two empty runs.
  EXPECT_NE(first.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(first.find("\"trace_id\""), std::string::npos);
  EXPECT_EQ(first, second);
}

// --- timeline ---------------------------------------------------------------

TEST(Timeline, SyntheticArithmetic) {
  Trace t;
  // Client perceives [0,2]; the writer works [1,4]; 1s of vfs write inside.
  t.events.push_back(
      span_event("rochdf", "snapshot.perceived", "s1", 0.0, 2.0, 1));
  t.events.push_back(
      span_event("rochdf", "snapshot.background", "s1", 1.0, 3.0, 2));
  t.events.push_back(span_event("vfs", "write", "", 2.0, 1.0, 2));

  const auto tl = snapshot_timelines(t);
  ASSERT_EQ(tl.size(), 1u);
  const SnapshotTimeline& s = tl[0];
  EXPECT_EQ(s.base, "s1");
  EXPECT_DOUBLE_EQ(s.start, 0.0);
  EXPECT_DOUBLE_EQ(s.end, 4.0);
  EXPECT_DOUBLE_EQ(s.wall_s, 4.0);
  EXPECT_DOUBLE_EQ(s.perceived_s, 2.0);
  EXPECT_DOUBLE_EQ(s.background_s, 3.0);
  EXPECT_DOUBLE_EQ(s.hidden_s, 2.0);  // [2,4]: background minus overlap
  EXPECT_DOUBLE_EQ(s.raw_write_s, 1.0);
  EXPECT_EQ(s.client_threads, 1);
  EXPECT_EQ(s.writer_threads, 1);
  // The Fig. 3 identity for a writer that starts inside the perceived span.
  EXPECT_NEAR(s.perceived_s + s.hidden_s, s.wall_s, 1e-12);
}

TEST(Timeline, PerceivedIsMaxAcrossRanksAndSnapshotsAreSorted) {
  Trace t;
  // Two ranks write snapshot "b" concurrently; the visible cost is the
  // slower rank (3s), not the sum.  Snapshot "a" starts later.
  t.events.push_back(
      span_event("client", "snapshot.perceived", "b", 0.0, 2.0, 1));
  t.events.push_back(
      span_event("client", "snapshot.perceived", "b", 0.0, 3.0, 2));
  t.events.push_back(
      span_event("client", "snapshot.perceived", "a", 10.0, 1.0, 1));
  // A vfs write on a thread with no background span: attributed nowhere.
  t.events.push_back(span_event("vfs", "write", "", 0.5, 0.5, 3));

  const auto tl = snapshot_timelines(t);
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl[0].base, "b");
  EXPECT_EQ(tl[1].base, "a");
  EXPECT_DOUBLE_EQ(tl[0].perceived_s, 3.0);
  EXPECT_EQ(tl[0].client_threads, 2);
  EXPECT_DOUBLE_EQ(tl[0].background_s, 0.0);
  EXPECT_DOUBLE_EQ(tl[0].hidden_s, 0.0);
  EXPECT_DOUBLE_EQ(tl[0].raw_write_s, 0.0);
}

/// The end-to-end check on the simulated substrate: a T-Rochdf snapshot
/// whose background write overlaps compute.  The timeline must (a) run on
/// virtual time, (b) hide most of the write, and (c) satisfy the Fig. 3
/// identity perceived + hidden ~= wall within 5%.
TEST(Timeline, TRochdfOnSimSatisfiesTheFig3Identity) {
  ScopedTracing tracing;
  sim::Platform p;
  p.node.cpus = 2;
  sim::Simulation sim(p);
  auto fs = std::make_shared<sim::SimFileSystem>(sim);
  auto world = std::make_shared<sim::SimWorld>(sim, 1);
  sim.add_process([world, fs](sim::ProcContext& ctx) {
    auto comm = world->attach();
    sim::SimEnv env(ctx.sim());
    roccom::Roccom com;
    auto& w = com.create_window("fluid");
    auto b = mesh::MeshBlock::structured(0, {8, 8, 8});
    mesh::add_fluid_schema(b);
    w.register_pane(b.id(), &b);

    rochdf::Options o;
    o.threaded = true;
    rochdf::Rochdf io(*comm, env, *fs, o);
    io.write_attribute(com, roccom::IoRequest{"fluid", "all", "tl", 0.0});
    ctx.compute(5.0);  // overlap window for the background write
    io.sync();
  });
  sim.run();

  const Trace trace = collect_trace();
  const auto tl = snapshot_timelines(trace);
  ASSERT_EQ(tl.size(), 1u);
  const SnapshotTimeline& s = tl[0];
  EXPECT_EQ(s.base, "tl");
  // Virtual time: the whole snapshot fits inside the ~5 s simulated run.
  EXPECT_LT(s.end, 10.0);
  EXPECT_GT(s.wall_s, 0.0);
  // Active buffering hid the write: the background work dwarfs the
  // perceived marshal cost, and the raw vfs writes happened inside it.
  EXPECT_GT(s.hidden_s, s.perceived_s);
  EXPECT_GT(s.raw_write_s, 0.0);
  EXPECT_LE(s.raw_write_s, s.background_s + 1e-9);
  EXPECT_EQ(s.client_threads, 1);
  EXPECT_EQ(s.writer_threads, 1);
  EXPECT_NEAR(s.perceived_s + s.hidden_s, s.wall_s, 0.05 * s.wall_s);
}

// --- flight recorder --------------------------------------------------------

/// Turns recording on with a dump path for a scope; restores off + no
/// dump path.
struct ScopedFlight {
  explicit ScopedFlight(const std::string& dump_path = {}) {
    flight::set_dump_path(dump_path.empty() ? nullptr : dump_path.c_str());
    set_trace_enabled(true);
  }
  ~ScopedFlight() {
    set_trace_enabled(false);
    flight::set_dump_path(nullptr);
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FlightRecorder, DumpIsSelfContainedValidJson) {
  const std::string path = testing::TempDir() + "/flight_dump.json";
  ScopedFlight flight_on;
  set_thread_name("dump test");
  { Span s("test", "flight.span", "payload"); }
  record_instant("test", "flight.instant", "detail \"quoted\"\\");
  ASSERT_TRUE(flight::dump_now("on demand", path.c_str()));

  const std::string json = slurp(path);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"flight_recorder\":true"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"on demand\""), std::string::npos);
  EXPECT_NE(json.find("\"dump test\""), std::string::npos);
  EXPECT_NE(json.find("\"span_begin\""), std::string::npos);
  EXPECT_NE(json.find("\"span_end\""), std::string::npos);
  EXPECT_NE(json.find("\"flight.span\""), std::string::npos);
  EXPECT_NE(json.find("\"flight.instant\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RingOverflowKeepsTheNewestEvents) {
  const std::string path = testing::TempDir() + "/flight_overflow.json";
  ScopedFlight flight_on;
  const std::size_t n = flight::kDumpEventsPerThread + 10;
  for (std::size_t i = 0; i < n; ++i) {
    // Built piecewise: `"lit" + std::to_string(...)` trips GCC 12's bogus
    // -Wrestrict at -O3 (PR105651).
    std::string detail = "n";
    detail += std::to_string(i);
    record_instant("test", "overflow", detail);
  }
  ASSERT_TRUE(flight::dump_now("overflow", path.c_str()));
  const std::string json = slurp(path);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  // The newest event survived, the oldest did not; this thread reports
  // events left out of the dump.
  EXPECT_NE(json.find("\"detail\":\"n" + std::to_string(n - 1) + "\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"detail\":\"n0\""), std::string::npos);
  EXPECT_EQ(json.find("\"dropped\":0,\"events\":[{\"kind\":\"instant\","
                      "\"cat\":\"test\",\"name\":\"overflow\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RequireFailureDumpsWhenPathConfigured) {
  const std::string path = testing::TempDir() + "/flight_require.json";
  std::remove(path.c_str());
  ScopedFlight flight_on(path);
  EXPECT_THROW(require(false, "planted telemetry-test failure"),
               InvalidArgument);
  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty()) << "require failure did not dump to " << path;
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"reason\":\"require failure\""), std::string::npos);
  EXPECT_NE(json.find("planted telemetry-test failure"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RequireFailureWithoutPathDoesNotDump) {
  ScopedFlight flight_on;  // enabled, but no dump path configured
  (void)collect_trace();
  EXPECT_THROW(require(false, "quiet failure"), InvalidArgument);
  // The failure still lands in the ring for a later crash dump...
  const Trace t = collect_trace();
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_STREQ(t.events[0].category, "require");
  EXPECT_EQ(t.events[0].detail, "quiet failure");
  // ...but no rocpio-flight.json appears in the working directory (the
  // routine error-path case must not litter).  dump_now was not called, so
  // nothing to clean up here -- the assertion is the absence of a throw-
  // time side effect, covered by the configured-path test above.
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  const std::string path = testing::TempDir() + "/flight_disabled.json";
  ASSERT_FALSE(trace_enabled());
  const std::size_t rings = detail::ring_count();
  roc::Thread([] {
    set_thread_name("untraced thread");
    record_instant("test", "off.instant");
    Span s("test", "off.span");
  }).join();
  // Nothing recorded, and no ring allocated for the thread.
  EXPECT_EQ(detail::ring_count(), rings);
  ASSERT_TRUE(flight::dump_now("disabled", path.c_str()));
  const std::string json = slurp(path);
  EXPECT_EQ(json.find("off."), std::string::npos) << json;
  EXPECT_EQ(json.find("untraced thread"), std::string::npos) << json;
  std::remove(path.c_str());
}

TEST(FlightRecorder, OpenSpansAndDetailsUpToTheInlineLimitSurvive) {
  const std::string path = testing::TempDir() + "/flight_open.json";
  ScopedFlight flight_on;
  (void)collect_trace();
  std::string exact = "snapshot_base_";
  while (exact.size() < kTraceDetailBytes)
    exact += static_cast<char>('a' + exact.size() % 26);
  const std::string longer = exact + "_and_more";
  const std::string cut = exact.substr(0, kTraceDetailBytes - 3) + "...";
  record_instant("test", "long", longer);
  {
    Span open("test", "still.open", exact);
    ASSERT_TRUE(flight::dump_now("open span", path.c_str()));
  }
  const std::string json = slurp(path);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("{\"kind\":\"span_begin\",\"cat\":\"test\","
                      "\"name\":\"still.open\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"detail\":\"" + exact + "\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"" + cut + "\""), std::string::npos);

  const Trace t = collect_trace();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].detail, cut);
  EXPECT_STREQ(t.events[1].name, "still.open");
  EXPECT_EQ(t.events[1].detail, exact);
  std::remove(path.c_str());
}

// --- the ring registry ------------------------------------------------------

/// Regression: the flight recorder used to keep a fixed table of 256 rings,
/// one per thread ever started, and ignored every thread after that.
TEST(TraceRing, ThreadAfter300ShortLivedOnesReachesBothReaders) {
  const std::string path = testing::TempDir() + "/flight_late.json";
  ScopedFlight flight_on;
  for (int i = 0; i < 300; ++i)
    roc::Thread([] { record_instant("test", "short.lived"); }).join();
  roc::Thread([] {
    set_thread_name("late thread");
    record_instant("test", "late.mark");
  }).join();

  const Trace t = collect_trace();
  int late = 0;
  for (const TraceEvent& e : t.events)
    late += std::string(e.name) == "late.mark";
  EXPECT_EQ(late, 1);
  ASSERT_TRUE(flight::dump_now("late", path.c_str()));
  const std::string json = slurp(path);
  EXPECT_TRUE(JsonChecker::valid(json));
  EXPECT_NE(json.find("\"late thread\""), std::string::npos);
  EXPECT_NE(json.find("\"late.mark\""), std::string::npos);
  std::remove(path.c_str());
}

/// Regression: trace rings of exited threads used to stay allocated for
/// good.  Once collected, an exited thread's ring is reused by the next.
TEST(TraceRing, ExitedThreadsRingsAreReusedOnceCollected) {
  ScopedTracing tracing;
  // Rings left by earlier tests in this process are reusable too.
  const std::size_t before = detail::ring_count();
  for (int i = 0; i < 200; ++i) {
    roc::Thread([] {
      for (std::size_t k = 0; k < kTraceRingCapacity / 2; ++k)
        Span s("test", "fill");
    }).join();
    const Trace t = collect_trace();
    ASSERT_EQ(t.events.size() + t.dropped, kTraceRingCapacity / 2);
    // Live threads (this one, which may own a ring) plus one.
    ASSERT_LE(detail::ring_count(), before + 2u) << "after thread " << i;
  }
}

// --- log satellites ---------------------------------------------------------

TEST(LogMacro, EvaluatesLevelExactlyOnce) {
  ScopedLogCapture capture(LogLevel::kDebug);
  int level_evals = 0;
  auto level = [&] {
    ++level_evals;
    return LogLevel::kWarn;
  };
  ROC_LOG(level()) << "once";
  EXPECT_EQ(level_evals, 1);
  ASSERT_EQ(capture.size(), 1u);
  EXPECT_EQ(capture.lines()[0].msg, "once");
}

TEST(LogMacro, FilteredLineEvaluatesNoOperands) {
  ScopedLogCapture capture(LogLevel::kError);
  int operand_evals = 0;
  auto operand = [&] {
    ++operand_evals;
    return "expensive";
  };
  ROC_DEBUG << operand();
  EXPECT_EQ(operand_evals, 0);
  EXPECT_EQ(capture.size(), 0u);
  ROC_ERROR << operand();
  EXPECT_EQ(operand_evals, 1);
  EXPECT_TRUE(capture.contains("expensive"));
}

TEST(LogMacro, BindsCorrectlyInUnbracedIfElse) {
  ScopedLogCapture capture(LogLevel::kDebug);
  bool took_else = false;
  if (true)
    ROC_WARN << "then-branch";
  else
    took_else = true;  // a dangling-else capture would run this
  EXPECT_FALSE(took_else);
  EXPECT_TRUE(capture.contains("then-branch"));

  if (false)
    ROC_WARN << "not emitted";
  else
    took_else = true;
  EXPECT_TRUE(took_else);
  EXPECT_FALSE(capture.contains("not emitted"));
}

TEST(LogCapture, RestoresSinkAndLevelOnExit) {
  const LogLevel before = log_level();
  {
    ScopedLogCapture outer(LogLevel::kDebug);
    {
      ScopedLogCapture inner(LogLevel::kError);
      log_line(LogLevel::kError, "to inner");
      EXPECT_EQ(log_level(), LogLevel::kError);
    }
    EXPECT_EQ(log_level(), LogLevel::kDebug);
    log_line(LogLevel::kInfo, "to outer");
    EXPECT_TRUE(outer.contains("to outer"));
    EXPECT_FALSE(outer.contains("to inner"));
  }
  EXPECT_EQ(log_level(), before);
}

TEST(LogMirror, ErrorLinesBecomeTraceInstants) {
  ScopedLogCapture capture(LogLevel::kDebug);  // keep stderr quiet
  ScopedTracing tracing;
  ROC_ERROR << "disk on fire";
  ROC_WARN << "only a warning";
  const Trace t = collect_trace();
  int error_instants = 0;
  for (const TraceEvent& e : t.events) {
    if (std::string(e.category) != "log") continue;
    ++error_instants;
    EXPECT_LT(e.dur, 0.0);
    EXPECT_EQ(e.detail, "disk on fire");
  }
  EXPECT_EQ(error_instants, 1);
  // The sink still got both lines: the mirror is an observer, not a tee.
  EXPECT_TRUE(capture.contains("disk on fire"));
  EXPECT_TRUE(capture.contains("only a warning"));
}

// --- stats views ------------------------------------------------------------

/// Every counter of all three services, pinned to the value the workload
/// implies.  The simulator makes the schedule deterministic: two servers
/// with one client each (one client ships through its hierarchy buffer),
/// three blocks per client against a server buffer that holds one small
/// block but not two, a sync, an N-to-M restart read, and on each client a
/// T-Rochdf whose second snapshot waits for the first plus a plain Rochdf.
TEST(StatsView, EveryServiceCounterHasItsExactValue) {
  constexpr int kClients = 2, kServers = 2;
  // Blocks 3c and 3c+1 are small, block 3c+2 is larger than the buffer.
  auto make = [](int id) {
    const int n = id % 3 == 2 ? 8 : 4;
    auto b = mesh::MeshBlock::structured(id, {n, n, n});
    mesh::add_fluid_schema(b);
    return b;
  };
  auto wire_size = [&](int id) {
    return roccom::WireBlock::from_block(make(id), "all").serialize().size();
  };
  const uint64_t small = wire_size(0), big = wire_size(2);
  const uint64_t per_client = 2 * small + big;
  ASSERT_EQ(wire_size(3), small);
  ASSERT_EQ(wire_size(5), big);
  ASSERT_GT(big, small + small / 2);

  sim::Platform p;
  p.node.cpus = 2;
  sim::Simulation sim(p);
  auto fs = std::make_shared<sim::SimFileSystem>(sim);
  auto world = std::make_shared<sim::SimWorld>(sim, kClients + kServers);
  std::vector<rocpanda::ServerStats> servers(kServers);
  std::vector<rocpanda::ClientStats> clients(kClients);
  std::vector<rochdf::Stats> trochdf(kClients), plain(kClients);
  for (int r = 0; r < kClients + kServers; ++r) {
    sim.add_process([&, world, fs](sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());
      const rocpanda::Layout layout(comm->size(), kServers);
      const bool server = layout.is_server(comm->rank());
      auto local = comm->split(server ? 1 : 0, comm->rank());
      if (server) {
        rocpanda::ServerOptions so;
        so.buffer_capacity = small + small / 2;
        servers[static_cast<size_t>(local->rank())] =
            rocpanda::run_server(*comm, *local, env, *fs, layout, so);
        return;
      }
      const int me = local->rank();
      const auto slot = static_cast<size_t>(me);
      roccom::Roccom com;
      auto& w = com.create_window("fluid");
      std::vector<mesh::MeshBlock> blocks;
      for (int i = 0; i < 3; ++i) blocks.push_back(make(3 * me + i));
      for (auto& b : blocks) w.register_pane(b.id(), &b);

      rocpanda::ClientOptions co;
      co.client_buffering = me == 0;
      rocpanda::RocpandaClient panda(*comm, env, layout, co);
      panda.write_attribute(com, roccom::IoRequest{"fluid", "all", "pv", 0});
      panda.sync();
      const int other = 1 - me;  // restart onto the other client's blocks
      EXPECT_EQ(
          panda.fetch_blocks("pv", {3 * other, 3 * other + 1, 3 * other + 2})
              .size(),
          3u);
      clients[slot] = panda.stats();

      rochdf::Options to;
      to.threaded = true;
      rochdf::Rochdf t(*local, env, *fs, to);
      t.write_attribute(com, roccom::IoRequest{"fluid", "all", "t1", 0});
      t.write_attribute(com, roccom::IoRequest{"fluid", "all", "t2", 0});
      t.sync();
      trochdf[slot] = t.stats();

      rochdf::Rochdf sync_io(*local, env, *fs, rochdf::Options{});
      sync_io.write_attribute(com,
                              roccom::IoRequest{"fluid", "all", "p1", 0});
      plain[slot] = sync_io.stats();
      panda.shutdown();
    });
  }
  sim.run();

  // Per server: the second small block spills the first, and the big one
  // spills the second and is then written through.
  for (const rocpanda::ServerStats& s : servers) {
    EXPECT_EQ(s.blocks_received, 3u);
    EXPECT_EQ(s.blocks_written, 3u);
    EXPECT_EQ(s.bytes_received, per_client);
    EXPECT_EQ(s.buffered_bytes_peak, small);
    EXPECT_EQ(s.spills, 3u);
    EXPECT_EQ(s.files_created, 1u);
    EXPECT_EQ(s.sync_requests, 1u);
    EXPECT_EQ(s.read_sessions, 1u);
  }
  for (const rocpanda::ClientStats& s : clients) {
    EXPECT_EQ(s.write_calls, 1u);
    EXPECT_EQ(s.blocks_sent, 3u);
    EXPECT_EQ(s.bytes_sent, per_client);
    EXPECT_EQ(s.sync_calls, 1u);
    EXPECT_EQ(s.blocks_fetched, 3u);
    EXPECT_EQ(s.backpressure_waits, 0u);
  }
  EXPECT_EQ(clients[0].bytes_buffered, per_client);  // the hierarchy client
  EXPECT_EQ(clients[1].bytes_buffered, 0u);
  for (const rochdf::Stats& s : trochdf) {
    EXPECT_EQ(s.write_calls, 2u);
    EXPECT_EQ(s.blocks_written, 6u);
    EXPECT_EQ(s.bytes_buffered, 2 * per_client);
    EXPECT_EQ(s.files_written, 2u);
    EXPECT_EQ(s.snapshot_waits, 1u);
  }
  for (const rochdf::Stats& s : plain) {
    EXPECT_EQ(s.write_calls, 1u);
    EXPECT_EQ(s.blocks_written, 3u);
    EXPECT_EQ(s.bytes_buffered, 0u);
    EXPECT_EQ(s.files_written, 1u);
    EXPECT_EQ(s.snapshot_waits, 0u);
  }
}

}  // namespace
}  // namespace roc::telemetry
