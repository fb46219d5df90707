#include "comm/env.h"

#include <chrono>
#include <thread>

#include "util/mutex.h"
#include "util/stopwatch.h"
#include "util/thread.h"

namespace roc::comm {

namespace {

class RealGate final : public Gate {
 protected:
  void do_lock() override { lock_.lock(); }
  void do_unlock() override { lock_.unlock(); }
  void do_wait() override {
    // The caller holds lock_ per the Gate contract; CondVar::wait adopts
    // it for the wait and hands it back on return.
    cv_.wait(lock_);
  }
  void do_notify_all() override { cv_.notify_all(); }

 private:
  roc::Mutex lock_{"gate"};
  roc::CondVar cv_;
};

class RealWorker final : public Worker {
 public:
  explicit RealWorker(std::function<void()> body)
      : thread_(std::move(body)) {}
  void join() override { thread_.join(); }

 private:
  roc::Thread thread_;
};

}  // namespace

double RealEnv::now() {
  // Seconds since the first call (the Env contract says "arbitrary
  // epoch").  Routed through roc::Stopwatch so the raw-clock lint rule
  // keeps a single chokepoint on std::chrono.
  static const Stopwatch epoch;
  return epoch.seconds();
}

void RealEnv::compute(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

std::unique_ptr<Worker> RealEnv::spawn_worker(std::function<void()> body) {
  return std::make_unique<RealWorker>(std::move(body));
}

std::unique_ptr<Gate> RealEnv::make_gate() {
  return std::make_unique<RealGate>();
}

}  // namespace roc::comm
