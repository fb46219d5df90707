#include "check/checker.h"

#include <atomic>
#include <iterator>

#include "check/explorer.h"

namespace roc::check {

namespace {

/// Session generations: a thread caches its tid per session, so reusing a
/// host thread (the ctest main thread drives many seeds) re-registers it
/// cleanly in each new session.
std::atomic<uint64_t> g_session_counter{1};
thread_local uint64_t t_session = 0;
thread_local Tid t_tid = -1;

std::string strip_dirs(const char* file) {
  std::string s = file != nullptr ? file : "?";
  const auto slash = s.find_last_of('/');
  return slash == std::string::npos ? s : s.substr(slash + 1);
}

}  // namespace

std::string SourceSite::str() const {
  return strip_dirs(file) + ":" + std::to_string(line);
}

Session::Session()
    : id_(g_session_counter.fetch_add(1, std::memory_order_relaxed)) {}

Session::~Session() {
  if (installed_) uninstall();
}

void Session::install() {
  set_hooks(this);
  installed_ = true;
}

void Session::uninstall() {
  set_hooks(nullptr);
  installed_ = false;
}

Tid Session::self_locked() {
  if (t_session != id_) {
    t_session = id_;
    t_tid = next_tid_++;
    threads_.resize(static_cast<size_t>(next_tid_));
    // Start the thread's own component at 1: a zero epoch would be
    // trivially covered by every other clock, hiding first-access races.
    threads_[static_cast<size_t>(t_tid)].vc.tick(t_tid);
  }
  return t_tid;
}

Session::ThreadState& Session::state_of(Tid t) {
  if (static_cast<size_t>(t) >= threads_.size())
    threads_.resize(static_cast<size_t>(t) + 1);
  return threads_[static_cast<size_t>(t)];
}

void Session::add_finding_locked(std::string key, std::string summary,
                                 std::string detail) {
  if (!seen_keys_.insert(key).second) return;
  Finding f;
  f.key = std::move(key);
  f.summary = std::move(summary);
  f.detail = std::move(detail);
  findings_.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

void Session::do_acquire(Tid t, const void* m) {
  ThreadState& ts = state_of(t);
  auto sit = sync_.find(m);
  if (sit != sync_.end()) ts.vc.join(sit->second);
  ts.held.push_back(m);
}

void Session::do_release(Tid t, const void* m) {
  ThreadState& ts = state_of(t);
  sync_[m] = ts.vc;
  ts.vc.tick(t);
  for (auto it = ts.held.rbegin(); it != ts.held.rend(); ++it) {
    if (*it == m) {
      ts.held.erase(std::next(it).base());
      break;
    }
  }
}

void Session::lock_acquire(const void* m, const char* /*name*/,
                           const char* /*file*/, unsigned /*line*/) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  do_acquire(self_locked(), m);
}

void Session::lock_release(const void* m) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  do_release(self_locked(), m);
}

void Session::lock_destroy(const void* m) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  sync_.erase(m);
}

void Session::wait_begin(const void* m) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  do_release(self_locked(), m);
}

void Session::wait_end(const void* m, const char* /*name*/,
                       const char* /*file*/, unsigned /*line*/) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  do_acquire(self_locked(), m);
}

// ---------------------------------------------------------------------------
// Packets (messages, thread lifetime)
// ---------------------------------------------------------------------------

void Session::packet_send(uint64_t token) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  const Tid t = self_locked();
  ThreadState& ts = state_of(t);
  packets_[token] = ts.vc;
  ts.vc.tick(t);
}

void Session::packet_recv(uint64_t token) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  const Tid t = self_locked();
  auto it = packets_.find(token);
  if (it == packets_.end()) return;  // sent before the session installed
  // Kept (not erased): thread-finish tokens are legitimately joined by
  // both the simulator's reaper and the logical joiner.
  state_of(t).vc.join(it->second);
}

// ---------------------------------------------------------------------------
// Shadow cells
// ---------------------------------------------------------------------------

void Session::report_race_locked(const Cell& cell, const Access& prev,
                                 bool prev_write, Tid tid, SourceSite site,
                                 bool write) {
  const char* prev_kind = prev_write ? "write" : "read";
  const char* this_kind = write ? "write" : "read";
  // Site pair normalized so A-vs-B and B-vs-A dedupe together.
  std::string s1 = prev.site.str();
  std::string s2 = site.str();
  if (s2 < s1) std::swap(s1, s2);
  std::string key =
      "race:" + cell.name + ":" + s1 + ":" + s2;
  // No thread ids in the text: tids are assigned in OS-thread arrival
  // order, which real-time scheduling can permute between two runs of the
  // same seed — the replayed report must be byte-identical.
  std::string summary = "data race on '" + cell.name + "': " + this_kind +
                        " at " + site.str() +
                        " is concurrent with a prior " + prev_kind +
                        " at " + prev.site.str() + " by another thread";
  (void)tid;
  std::string detail =
      summary + "\n  no happens-before edge connects the two accesses\n";
  add_finding_locked(std::move(key), std::move(summary), std::move(detail));
}

void Session::shared_access(const void* cell, const char* what, bool write,
                            const char* file, unsigned line) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  const Tid t = self_locked();
  ThreadState& ts = state_of(t);
  const SourceSite site{file, line};
  Cell& c = cells_[cell];
  if (c.name.empty()) c.name = what != nullptr ? what : "?";

  if (write) {
    if (c.has_write && c.last_write.tid != t &&
        !ts.vc.covers(Epoch{c.last_write.tid, c.last_write.clock})) {
      report_race_locked(c, c.last_write, /*prev_write=*/true, t, site, true);
    }
    for (const auto& [rt, racc] : c.reads) {
      if (rt == t) continue;
      if (!ts.vc.covers(Epoch{racc.tid, racc.clock}))
        report_race_locked(c, racc, /*prev_write=*/false, t, site, true);
    }
    c.has_write = true;
    c.last_write = Access{t, ts.vc.get(t), site};
    c.reads.clear();
  } else {
    if (c.has_write && c.last_write.tid != t &&
        !ts.vc.covers(Epoch{c.last_write.tid, c.last_write.clock})) {
      report_race_locked(c, c.last_write, /*prev_write=*/true, t, site, false);
    }
    c.reads[t] = Access{t, ts.vc.get(t), site};
  }
}

// ---------------------------------------------------------------------------
// Preemption points
// ---------------------------------------------------------------------------

void Session::preemption_point(const char* kind) {
  Explorer* e = explorer_;
  if (e == nullptr) return;
  size_t held;
  {
    std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
    held = state_of(self_locked()).held.size();
  }
  // Outside mu_: a preemption parks this thread and runs others, whose
  // hooks need the session lock.
  e->maybe_preempt(kind, held);
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

std::vector<Finding> Session::findings() const {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  return findings_;
}

bool Session::has_findings() const {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  return !findings_.empty();
}

std::string Session::report() const {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  std::string out;
  // Appended piecewise rather than via operator+ chains: GCC 12's bogus
  // -Wrestrict fires on `"lit" + std::to_string(...)` at -O3 (PR105651).
  for (size_t i = 0; i < findings_.size(); ++i) {
    out += '[';
    out += std::to_string(i + 1);
    out += '/';
    out += std::to_string(findings_.size());
    out += "] ";
    out += findings_[i].detail;
    if (!out.empty() && out.back() != '\n') out += '\n';
  }
  return out;
}

}  // namespace roc::check
