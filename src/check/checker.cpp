#include "check/checker.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
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

void Session::add_finding_locked(Finding::Kind kind, std::string key,
                                 std::string summary, std::string detail) {
  if (!seen_keys_.insert(key).second) return;
  Finding f;
  f.kind = kind;
  f.key = std::move(key);
  f.summary = std::move(summary);
  f.detail = std::move(detail);
  findings_.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

void Session::check_lock_order_locked(Tid t, const void* m, const char* name,
                                      SourceSite site) {
  ThreadState& ts = state_of(t);
  if (ts.held.empty()) return;

  // The acquisition stack that would create these edges: everything held,
  // then the new lock.
  std::vector<std::string> stack;
  stack.reserve(ts.held.size() + 1);
  for (const HeldLock& h : ts.held)
    stack.push_back(h.name + " acquired at " + h.site.str());
  stack.push_back(std::string(name != nullptr ? name : "?") +
                  " acquiring at " + site.str());

  const std::string to_name = name != nullptr ? name : "?";
  for (const HeldLock& h : ts.held) {
    if (h.m == m) continue;  // re-locking a held mutex self-deadlocks in
                             // m_.lock() before reaching this hook, so a
                             // self-edge never forms here (TSan reports it)
    auto [it, fresh] = edges_[h.m].try_emplace(m);
    if (fresh) it->second.stack = stack;
    if (h.name != to_name)  // distinct objects sharing a name: not an order
      named_edges_.try_emplace({h.name, to_name}, stack);

    // New edge h.m -> m: a path m ->* h.m would close a cycle.
    std::vector<const void*> path;  // locks visited m ... h.m
    std::vector<std::pair<const void*, const void*>> parent_edges;
    std::set<const void*> visited;
    std::vector<const void*> dfs{m};
    std::map<const void*, const void*> parent;
    bool found = false;
    while (!dfs.empty() && !found) {
      const void* cur = dfs.back();
      dfs.pop_back();
      if (!visited.insert(cur).second) continue;
      auto eit = edges_.find(cur);
      if (eit == edges_.end()) continue;
      for (const auto& [next, edge] : eit->second) {
        if (visited.count(next) != 0) continue;
        parent[next] = cur;
        if (next == h.m) {
          found = true;
          break;
        }
        dfs.push_back(next);
      }
    }
    if (!found) continue;

    // Reconstruct the path m -> ... -> h.m, then the new edge closes it.
    std::vector<const void*> cycle;
    for (const void* cur = h.m;; cur = parent.at(cur)) {
      cycle.push_back(cur);
      if (cur == m) break;
    }
    // cycle is h.m ... m reversed; present as m -> ... -> h.m -> m.
    std::string key = "cycle:";
    std::string detail = "lock-order cycle:\n";
    auto lock_label = [this](const void* l) {
      auto nit = lock_names_.find(l);
      return nit != lock_names_.end() ? nit->second : std::string("?");
    };
    for (auto rit = cycle.rbegin(); rit != cycle.rend(); ++rit)
      key += lock_label(*rit) + ">";
    detail += "  this acquisition (closing edge " + lock_label(h.m) +
              " -> " + lock_label(m) + "):\n";
    for (const std::string& s : stack) detail += "    " + s + "\n";
    // The opposing stack: the recorded edge m ->* h.m along the found
    // path; name the first edge out of m on that path.
    const void* second_hop = nullptr;
    for (const auto& [child, par] : parent) {
      if (par == m) {
        // Prefer the hop actually on the reconstructed path.
        if (std::find(cycle.begin(), cycle.end(), child) != cycle.end())
          second_hop = child;
      }
    }
    if (second_hop == nullptr && cycle.size() >= 2)
      second_hop = cycle[cycle.size() - 2];
    if (second_hop != nullptr) {
      const Edge& opposing = edges_[m][second_hop];
      detail += "  earlier acquisition (edge " + lock_label(m) + " -> " +
                lock_label(second_hop) + "):\n";
      for (const std::string& s : opposing.stack) detail += "    " + s + "\n";
    }
    add_finding_locked(
        Finding::Kind::kLockCycle, key,
        "lock-order cycle closed by acquiring " + lock_label(m) +
            " while holding " + lock_label(h.m),
        detail);
  }
}

void Session::do_acquire(Tid t, const void* m, const char* name,
                         SourceSite site, bool record_order) {
  ThreadState& ts = state_of(t);
  lock_names_.emplace(m, name != nullptr ? name : "?");
  if (record_order) check_lock_order_locked(t, m, name, site);
  auto sit = sync_.find(m);
  if (sit != sync_.end()) ts.vc.join(sit->second);
  ts.held.push_back(
      HeldLock{m, name != nullptr ? name : "?", site});
}

void Session::do_release(Tid t, const void* m) {
  ThreadState& ts = state_of(t);
  sync_[m] = ts.vc;
  ts.vc.tick(t);
  for (auto it = ts.held.rbegin(); it != ts.held.rend(); ++it) {
    if (it->m == m) {
      ts.held.erase(std::next(it).base());
      break;
    }
  }
}

void Session::lock_acquire(const void* m, const char* name, const char* file,
                           unsigned line) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  do_acquire(self_locked(), m, name, SourceSite{file, line},
             /*record_order=*/true);
}

void Session::lock_release(const void* m) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  do_release(self_locked(), m);
}

void Session::lock_destroy(const void* m) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  sync_.erase(m);
  lock_names_.erase(m);
  edges_.erase(m);
  for (auto& [from, out] : edges_) out.erase(m);
}

void Session::wait_begin(const void* m) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  do_release(self_locked(), m);
}

void Session::wait_end(const void* m, const char* name, const char* file,
                       unsigned line) {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  // Re-acquisition after a wait re-joins the object's clock but does not
  // create lock-order edges: the wait was entered with the lock already
  // held, so ordering was checked at the original acquisition.
  do_acquire(self_locked(), m, name, SourceSite{file, line},
             /*record_order=*/false);
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
  add_finding_locked(Finding::Kind::kRace, std::move(key), std::move(summary),
                     std::move(detail));
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

namespace {

void append_json_string(const std::string& s, std::string* out) {
  *out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace

void write_lock_order_json(const std::vector<LockOrderEdge>& edges,
                           std::string* out) {
  // Appended piecewise for the same GCC 12 -Wrestrict reason as report().
  *out += "{\n";
  *out += "  \"version\": 1,\n";
  *out += "  \"kind\": \"runtime-lock-order-graph\",\n";
  *out += "  \"edges\": [";
  for (size_t i = 0; i < edges.size(); ++i) {
    *out += i == 0 ? "\n" : ",\n";
    *out += "    {\"from\": ";
    append_json_string(edges[i].from, out);
    *out += ", \"to\": ";
    append_json_string(edges[i].to, out);
    *out += ", \"stack\": [";
    for (size_t j = 0; j < edges[i].stack.size(); ++j) {
      if (j != 0) *out += ", ";
      append_json_string(edges[i].stack[j], out);
    }
    *out += "]}";
  }
  *out += "\n  ]\n}\n";
}

std::vector<LockOrderEdge> Session::lock_order_edges() const {
  std::lock_guard<std::mutex> g(mu_);  // LINT-ALLOW(raw-sync)
  std::vector<LockOrderEdge> out;
  out.reserve(named_edges_.size());
  for (const auto& [key, stack] : named_edges_)
    out.push_back(LockOrderEdge{key.first, key.second, stack});
  return out;  // map iteration order is already (from, to)-sorted
}

bool Session::dump_lock_order_json(const std::string& path) const {
  std::string doc;
  write_lock_order_json(lock_order_edges(), &doc);
  std::ofstream f(path);
  f << doc;
  return static_cast<bool>(f);
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
