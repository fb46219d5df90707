/// \file check_test.cpp
/// \brief The concurrency checker: vector-clock algebra, happens-before
/// edges across all four sync primitives (Mutex, CondVar, Gate, message),
/// and seed-replay determinism of the schedule explorer.

#include <gtest/gtest.h>

#include "check/checker.h"
#include "check/explorer.h"
#include "check/scenarios.h"
#include "check/vector_clock.h"
#include "comm/env.h"
#include "comm/thread_comm.h"
#include "util/check_hooks.h"
#include "util/mutex.h"
#include "util/thread.h"

namespace roc::check {
namespace {

// --- vector-clock algebra ----------------------------------------------------

TEST(VectorClock, GetSetTick) {
  VectorClock vc;
  EXPECT_TRUE(vc.empty());
  EXPECT_EQ(vc.get(3), 0u);
  vc.set(3, 7);
  EXPECT_EQ(vc.get(3), 7u);
  vc.tick(3);
  vc.tick(5);
  EXPECT_EQ(vc.get(3), 8u);
  EXPECT_EQ(vc.get(5), 1u);
  EXPECT_EQ(vc.str(), "{3:8, 5:1}");
}

TEST(VectorClock, JoinIsPointwiseMax) {
  VectorClock a, b;
  a.set(0, 3);
  a.set(1, 1);
  b.set(1, 4);
  b.set(2, 2);
  a.join(b);
  EXPECT_EQ(a.get(0), 3u);
  EXPECT_EQ(a.get(1), 4u);
  EXPECT_EQ(a.get(2), 2u);
}

TEST(VectorClock, CoversEpochAndClock) {
  VectorClock a;
  a.set(0, 3);
  EXPECT_TRUE(a.covers(Epoch{0, 3}));
  EXPECT_TRUE(a.covers(Epoch{0, 2}));
  EXPECT_FALSE(a.covers(Epoch{0, 4}));
  EXPECT_TRUE(a.covers(Epoch{1, 0}));  // zero components always covered
  EXPECT_FALSE(a.covers(Epoch{1, 1}));

  VectorClock b;
  b.set(0, 2);
  EXPECT_TRUE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  b.set(1, 1);
  EXPECT_FALSE(a.covers(b));
}

TEST(VectorClock, EqualityIsSemantic) {
  VectorClock a, b;
  a.set(0, 2);
  b.set(0, 2);
  b.set(1, 0);  // explicit zero must not break equality
  EXPECT_TRUE(a == b);
  b.tick(1);
  EXPECT_FALSE(a == b);
}

// --- happens-before edges, one per sync primitive ----------------------------
//
// Each positive test runs a cross-thread handoff that IS properly ordered
// and must stay silent; the negative test drops the synchronization and
// must trip.  roc::Thread spawn/join themselves carry HB edges, so the
// negative test uses two concurrent siblings (never ordered against each
// other).

TEST(HappensBefore, UnsynchronizedSiblingWritesRace) {
  Session s;
  s.install();
  int cell = 0;
  {
    roc::Thread a([&] {
      ROC_CHECK_SHARED_WRITE(&cell, "hb.cell");
      cell = 1;
    });
    roc::Thread b([&] {
      ROC_CHECK_SHARED_WRITE(&cell, "hb.cell");
      cell = 2;
    });
  }
  s.uninstall();
  ASSERT_TRUE(s.has_findings());
  EXPECT_EQ(s.findings()[0].summary.rfind("data race", 0), 0u);
  EXPECT_NE(s.findings()[0].summary.find("hb.cell"), std::string::npos);
}

TEST(HappensBefore, MutexOrdersSiblingWrites) {
  Session s;
  s.install();
  int cell = 0;
  {
    roc::Mutex m("hb-mutex");
    roc::Thread a([&] {
      MutexLock l(m);
      ROC_CHECK_SHARED_WRITE(&cell, "hb.cell");
      cell = 1;
    });
    roc::Thread b([&] {
      MutexLock l(m);
      ROC_CHECK_SHARED_WRITE(&cell, "hb.cell");
      cell = 2;
    });
  }
  s.uninstall();
  EXPECT_FALSE(s.has_findings()) << s.report();
}

TEST(HappensBefore, CondVarHandoffIsOrdered) {
  Session s;
  s.install();
  int cell = 0;
  {
    roc::Mutex m("hb-cv");
    roc::CondVar cv;
    bool ready = false;
    roc::Thread consumer([&] {
      MutexLock l(m);
      while (!ready) cv.wait(m);
      ROC_CHECK_SHARED_READ(&cell, "hb.cell");
      EXPECT_EQ(cell, 42);
    });
    // The payload write happens OUTSIDE the mutex; only the CondVar
    // protocol (release at wait, acquire at wakeup) orders it.
    ROC_CHECK_SHARED_WRITE(&cell, "hb.cell");
    cell = 42;
    {
      MutexLock l(m);
      ready = true;
    }
    cv.notify_all();
  }
  s.uninstall();
  EXPECT_FALSE(s.has_findings()) << s.report();
}

TEST(HappensBefore, GateHandoffIsOrdered) {
  Session s;
  s.install();
  int cell = 0;
  {
    comm::RealEnv env;
    auto gate = env.make_gate();
    bool ready = false;
    roc::Thread consumer([&] {
      comm::GateLock l(*gate);
      while (!ready) gate->wait();
      ROC_CHECK_SHARED_READ(&cell, "hb.cell");
      EXPECT_EQ(cell, 7);
    });
    ROC_CHECK_SHARED_WRITE(&cell, "hb.cell");
    cell = 7;
    {
      comm::GateLock l(*gate);
      ready = true;
    }
    gate->notify_all();
  }
  s.uninstall();
  EXPECT_FALSE(s.has_findings()) << s.report();
}

TEST(HappensBefore, MessageReceiveOrdersPayload) {
  Session s;
  s.install();
  int cell = 0;
  comm::World::run(2, [&](comm::Comm& world) {
    if (world.rank() == 0) {
      ROC_CHECK_SHARED_WRITE(&cell, "hb.cell");
      cell = 9;
      const int v = 9;
      world.send(1, 5, &v, sizeof(v));
    } else {
      (void)world.recv(0, 5);
      ROC_CHECK_SHARED_READ(&cell, "hb.cell");
      EXPECT_EQ(cell, 9);
    }
  });
  s.uninstall();
  EXPECT_FALSE(s.has_findings()) << s.report();
}

// --- nested locks -------------------------------------------------------------

TEST(LockOrder, ConsistentNestingIsClean) {
  Session s;
  s.install();
  {
    roc::Mutex a("lock-a"), b("lock-b");
    for (int i = 0; i < 3; ++i) {
      MutexLock l1(a);
      MutexLock l2(b);
    }
  }
  s.uninstall();
  EXPECT_FALSE(s.has_findings()) << s.report();
}

// --- seed-driven exploration and replay --------------------------------------

TEST(Explorer, SameSeedReplaysIdentically) {
  auto run = [](uint64_t seed) {
    Session session;
    Explorer::Options o;
    o.seed = seed;
    Explorer explorer(o);
    auto result = run_scenario("racy", session, explorer);
    EXPECT_TRUE(result.ok()) << result.error;
    return std::pair{session.report(), explorer.trace_json()};
  };
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto first = run(seed);
    const auto second = run(seed);
    EXPECT_EQ(first.first, second.first) << "report diverged, seed " << seed;
    EXPECT_EQ(first.second, second.second) << "trace diverged, seed " << seed;
  }
}

TEST(Explorer, SweepCatchesThePlantedRace) {
  bool caught = false;
  for (uint64_t seed = 1; seed <= 16 && !caught; ++seed) {
    Session session;
    Explorer::Options o;
    o.seed = seed;
    Explorer explorer(o);
    auto result = run_scenario("racy", session, explorer);
    ASSERT_TRUE(result.ok()) << result.error;
    caught = session.has_findings();
  }
  EXPECT_TRUE(caught) << "no seed in 1..16 exposed the planted race";
}

TEST(Explorer, DifferentSeedsExploreDifferentSchedules) {
  auto trace = [](uint64_t seed) {
    Session session;
    Explorer::Options o;
    o.seed = seed;
    Explorer explorer(o);
    (void)run_scenario("trochdf", session, explorer);
    EXPECT_FALSE(session.has_findings()) << session.report();
    return explorer.trace_json();
  };
  // Not universally guaranteed, but with preemption injection across a
  // whole T-Rochdf run, 1 vs 2 colliding would indicate a wired-off rng.
  EXPECT_NE(trace(1), trace(2));
}

}  // namespace
}  // namespace roc::check
