#include "telemetry/watchdog.h"

#if !defined(ROCPIO_TELEMETRY_DISABLED)

#include <atomic>
#include <cstring>
#include <string>

#include "telemetry/clock.h"
#include "telemetry/flight.h"
#include "telemetry/trace.h"
#include "util/log.h"
#include "util/mutex.h"
#include "util/thread.h"

namespace roc::telemetry::watchdog {

namespace {

constexpr int kMaxSlots = 64;

std::uint64_t to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// One heartbeat.  beat()/poll() touch only atomics; the registration
/// path (first beat of a name) takes the registry mutex once.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> last_beat_bits{0};
  std::atomic<std::uint64_t> deadline_bits{0};
  std::atomic<bool> live{false};
  std::atomic<bool> missed{false};
};

struct Table {
  Mutex register_mu{"watchdog_register"};
  std::atomic<int> count{0};
  Slot slots[kMaxSlots];
};

Table& table() {
  static Table* t = new Table;  // leaked: outlives all threads
  return *t;
}

Slot* find_slot(const char* name) {
  Table& t = table();
  const int n = t.count.load(std::memory_order_acquire);
  for (int i = 0; i < n && i < kMaxSlots; ++i) {
    const char* have = t.slots[i].name.load(std::memory_order_acquire);
    if (have != nullptr &&
        (have == name || std::strcmp(have, name) == 0)) {
      return &t.slots[i];
    }
  }
  return nullptr;
}

Slot* find_or_register(const char* name) {
  if (Slot* s = find_slot(name)) return s;
  Table& t = table();
  MutexLock lock(t.register_mu);
  if (Slot* s = find_slot(name)) return s;  // raced registration
  const int idx = t.count.load(std::memory_order_relaxed);
  if (idx >= kMaxSlots) return nullptr;
  Slot& s = t.slots[idx];
  s.name.store(name, std::memory_order_release);
  t.count.store(idx + 1, std::memory_order_release);
  return &s;
}

/// Background poller (real-clock deployments).  Virtual-clock runs call
/// poll() themselves at points of their choosing.
struct Poller {
  Mutex mu{"watchdog_poller"};
  CondVar cv;
  bool stop_requested ROC_GUARDED_BY(mu) = false;
  bool running ROC_GUARDED_BY(mu) = false;
  roc::Thread thread;
};

Poller& poller() {
  static Poller* p = new Poller;  // leaked: outlives all threads
  return *p;
}

}  // namespace

void beat(const char* name, double deadline_s) {
  Slot* s = find_or_register(name);
  if (s == nullptr) return;  // table full: drop (observability, not control)
  const double t = telemetry::now();
  s->last_beat_bits.store(to_bits(t), std::memory_order_relaxed);
  s->deadline_bits.store(to_bits(deadline_s), std::memory_order_relaxed);
  s->missed.store(false, std::memory_order_relaxed);
  s->live.store(true, std::memory_order_release);
}

void retire(const char* name) {
  if (Slot* s = find_slot(name)) {
    s->live.store(false, std::memory_order_release);
  }
}

int poll() {
  Table& t = table();
  const double now_s = telemetry::now();
  const int n = t.count.load(std::memory_order_acquire);
  int overdue = 0;
  for (int i = 0; i < n && i < kMaxSlots; ++i) {
    Slot& s = t.slots[i];
    if (!s.live.load(std::memory_order_acquire)) continue;
    const char* name = s.name.load(std::memory_order_acquire);
    if (name == nullptr) continue;
    const double last = from_bits(
        s.last_beat_bits.load(std::memory_order_relaxed));
    const double deadline = from_bits(
        s.deadline_bits.load(std::memory_order_relaxed));
    const double age = now_s - last;
    if (age <= deadline) {
      s.missed.store(false, std::memory_order_relaxed);
      continue;
    }
    ++overdue;
    if (!s.missed.exchange(true, std::memory_order_relaxed)) {
      using telemetry::detail::EventKind;
      telemetry::detail::record({.kind = EventKind::kWatchdog,
                                 .category = "watchdog",
                                 .name = "missed",
                                 .ts = now_s},
                                name);
      ROC_ERROR << "watchdog: heartbeat '" << name << "' overdue: "
                << age << "s since last beat (deadline " << deadline
                << "s); dumping flight recorder";
      flight::dump_now((std::string("watchdog stall: ") + name).c_str());
    }
  }
  return overdue;
}

void start(double interval_s) {
  Poller& p = poller();
  MutexLock lock(p.mu);
  if (p.running) return;
  p.stop_requested = false;
  p.running = true;
  p.thread = roc::Thread([interval_s] {
    Poller& pp = poller();
    while (true) {
      bool tick = false;
      {
        MutexLock poll_lock(pp.mu);
        if (pp.stop_requested) break;
        // Timed out (not woken): a poll interval elapsed.
        if (!pp.cv.wait_for(pp.mu, interval_s) && !pp.stop_requested)
          tick = true;
      }
      // poll() logs and may dump the flight recorder; both block on I/O,
      // so the poller mutex must not be held across it.
      if (tick) poll();
    }
  });
}

void stop() {
  Poller& p = poller();
  {
    MutexLock lock(p.mu);
    if (!p.running) return;
    p.stop_requested = true;
    p.running = false;
    p.cv.notify_all();
  }
  p.thread.join();
}

void reset_for_testing() {
  Table& t = table();
  MutexLock lock(t.register_mu);
  const int n = t.count.load(std::memory_order_relaxed);
  for (int i = 0; i < n && i < kMaxSlots; ++i) {
    t.slots[i].live.store(false, std::memory_order_relaxed);
    t.slots[i].missed.store(false, std::memory_order_relaxed);
    t.slots[i].name.store(nullptr, std::memory_order_relaxed);
  }
  t.count.store(0, std::memory_order_release);
}

}  // namespace roc::telemetry::watchdog

#endif  // !ROCPIO_TELEMETRY_DISABLED
