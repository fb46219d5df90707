/// \file race_test.cpp
/// \brief Concurrency stress tests, written to be run under
/// ThreadSanitizer (-DROCPIO_SANITIZE=thread).  They pass under any build,
/// but their value is the interleavings they provoke: mailbox traffic from
/// many ranks at once, communicator splits racing with point-to-point
/// messages, T-Rochdf snapshot back-pressure and Rocpanda hierarchy-mode
/// shipping with a concurrent stats() reader, MemFileSystem directory
/// churn, and the logger.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "check/alloc_hook.h"
#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "rochdf/rochdf.h"
#include "rocpanda/client.h"
#include "rocpanda/layout.h"
#include "rocpanda/server.h"
#include "telemetry/flight.h"
#include "telemetry/trace.h"
#include "util/log.h"
#include "util/thread.h"
#include "vfs/vfs.h"

namespace roc {
namespace {

using comm::Comm;
using comm::World;
using roccom::IoRequest;
using roccom::Roccom;

// Deliberately small iteration counts: TSan serializes heavily and CI
// machines are slow; the interesting schedules appear within a few dozen
// rounds.
constexpr int kRounds = 40;

/// Every rank sends `kRounds` tagged messages to every other rank while
/// polling its own mailbox with iprobe and draining with recv.  Exercises
/// the mailbox mutex/condvar from all sides at once.
TEST(RaceTest, MailboxHammer) {
  World::run(4, [](Comm& comm) {
    const int n = comm.size();
    const int me = comm.rank();

    for (int round = 0; round < kRounds; ++round) {
      for (int dest = 0; dest < n; ++dest) {
        if (dest == me) continue;
        const int32_t payload = me * 1000 + round;
        comm.send(dest, /*tag=*/round % 3, &payload, sizeof payload);
      }
      // Drain n-1 messages for this round's tag, probing first so the
      // iprobe path (peek without dequeue) runs concurrently with senders.
      int got = 0;
      while (got < n - 1) {
        comm::Status st;
        if (comm.iprobe(comm::kAnySource, round % 3, &st)) {
          EXPECT_EQ(st.bytes, sizeof(int32_t));
        }
        auto m = comm.recv(comm::kAnySource, round % 3);
        int32_t v = 0;
        std::memcpy(&v, m.payload.data(), sizeof v);
        EXPECT_EQ(v % 1000, round);
        ++got;
      }
    }
  });
}

/// Repeatedly splits the world while traffic flows on the parent
/// communicator; envelopes for different communicators share the mailboxes,
/// so split's allgather/bcast runs through the same locks as the user sends.
TEST(RaceTest, SplitUnderLoad) {
  World::run(4, [](Comm& comm) {
    const int me = comm.rank();
    for (int round = 0; round < 8; ++round) {
      // A message on the parent comm that is *not* consumed until after the
      // split: it must sit in the mailbox without confusing the collective.
      const int32_t token = me + round * 100;
      comm.send((me + 1) % comm.size(), /*tag=*/77, &token, sizeof token);

      auto sub = comm.split(me % 2, /*key=*/-me);
      ASSERT_NE(sub, nullptr);
      EXPECT_EQ(sub->size(), comm.size() / 2);

      // Exchange inside the subcommunicator.
      const int32_t sv = me;
      sub->send((sub->rank() + 1) % sub->size(), 5, &sv, sizeof sv);
      auto sm = sub->recv(comm::kAnySource, 5);
      EXPECT_EQ(sm.payload.size(), sizeof(int32_t));

      auto m = comm.recv(comm::kAnySource, 77);
      int32_t v = 0;
      std::memcpy(&v, m.payload.data(), sizeof v);
      EXPECT_EQ(v / 100, round);
    }
  });
}

mesh::MeshBlock make_block(int id, int n) {
  auto b = mesh::MeshBlock::structured(id, {n, n, n});
  mesh::add_fluid_schema(b);
  auto& p = b.field("pressure");
  std::iota(p.data.begin(), p.data.end(), static_cast<double>(id));
  return b;
}

/// T-Rochdf with snapshots issued back-to-back and no intervening sync: the
/// producer thread runs into the one-snapshot-in-flight back-pressure
/// (stats().snapshot_waits) while the worker writes, and a third thread
/// polls stats() the whole time.  Under TSan this covers every
/// gate-guarded member of Rochdf from three threads at once.
TEST(RaceTest, OverlappingSnapshots) {
  vfs::MemFileSystem fs;
  constexpr int kSnapshots = 6;
  World::run(2, [&](Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b1 = make_block(comm.rank() * 2, 10);
    auto b2 = make_block(comm.rank() * 2 + 1, 10);
    w.register_pane(b1.id(), &b1);
    w.register_pane(b2.id(), &b2);

    rochdf::Options opts;
    opts.threaded = true;
    rochdf::Rochdf io(comm, env, fs, opts);

    std::atomic<bool> done{false};
    roc::Thread poller([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto s = io.stats();
        EXPECT_LE(s.blocks_written, s.write_calls * 2);
      }
    });

    for (int snap = 0; snap < kSnapshots; ++snap) {
      const std::string base = "snap_" + std::to_string(snap);
      io.write_attribute(com, IoRequest{"fluid", "all", base,
                                        static_cast<double>(snap)});
      // Mutate immediately: buffer-reuse safety means the worker must be
      // operating on its own deep copies.
      b1.field("pressure").data.assign(b1.field("pressure").data.size(),
                                       static_cast<double>(snap));
    }
    io.sync();
    done.store(true, std::memory_order_release);
    poller.join();

    const auto s = io.stats();
    EXPECT_EQ(s.write_calls, static_cast<uint64_t>(kSnapshots));
    EXPECT_EQ(s.blocks_written, static_cast<uint64_t>(kSnapshots) * 2);
    comm.barrier();
    if (comm.rank() == 0) {
      for (int snap = 0; snap < kSnapshots; ++snap)
        EXPECT_EQ(fs.list("snap_" + std::to_string(snap) + "_p").size(), 2u);
    }
  });
}

/// MemFileSystem namespace churn: threads create, write, list and remove
/// files under both shared and unique names.
TEST(RaceTest, MemFsChurn) {
  vfs::MemFileSystem fs;
  constexpr int kThreads = 4;
  std::vector<roc::Thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fs, t] {
      const std::string mine = "churn/worker" + std::to_string(t);
      std::vector<unsigned char> buf(512, static_cast<unsigned char>(t));
      for (int round = 0; round < kRounds; ++round) {
        {
          auto f = fs.open(mine, vfs::OpenMode::kTruncate);
          f->write(buf.data(), buf.size());
          f->flush();
        }
        EXPECT_TRUE(fs.exists(mine));
        {
          auto f = fs.open(mine, vfs::OpenMode::kRead);
          std::vector<unsigned char> back(buf.size());
          f->read(back.data(), back.size());
          EXPECT_EQ(back, buf);
        }
        // Directory-level operations race with other workers' open/remove.
        EXPECT_GE(fs.list("churn/").size(), 1u);
        (void)fs.total_bytes();
        fs.remove(mine);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fs.list("churn/").size(), 0u);
}

/// The logger serializes whole lines; hammer it from several threads.
/// Several threads acquire/seal/drop pooled buffers while others ship
/// sealed buffers across a ThreadComm world: the pool's free lists and the
/// cross-thread last-reference release (PooledRep destructor on the
/// receiver's thread) run concurrently.
TEST(RaceTest, BufferPoolChurn) {
  BufferPool pool(/*max_per_bucket=*/4);
  World::run(4, [&](Comm& comm) {
    const int me = comm.rank();
    const int peer = me ^ 1;  // 0<->1, 2<->3
    for (int round = 0; round < kRounds; ++round) {
      const size_t n = 512 + static_cast<size_t>((me * kRounds + round) % 4096);
      auto v = pool.acquire(n);
      std::memset(v.data(), me, v.size());
      SharedBuffer buf = pool.seal(std::move(v));
      comm.send(peer, 1, buf);
      buf = SharedBuffer();  // receiver may now hold the last reference
      auto m = comm.recv(peer, 1);
      EXPECT_EQ(m.payload.data()[0], static_cast<unsigned char>(peer));
    }  // message destruction returns storage to the pool from this thread
  });
  const auto st = pool.stats();
  EXPECT_GT(st.returns + st.discards, 0u);
}

/// Rocpanda hierarchy mode: each client's background worker ships the
/// buffered snapshots (incrementing blocks_sent/bytes_sent) while the
/// client thread keeps buffering more and a third thread polls stats() the
/// whole time.  Under TSan this covers the client's counters from three
/// threads at once; the final totals check that no increment was lost.
TEST(RaceTest, ClientStatsPolledDuringHierarchyShipping) {
  vfs::MemFileSystem fs;
  constexpr int kSnapshots = 6;
  World::run(3, [&](Comm& world) {
    comm::RealEnv env;
    const rocpanda::Layout layout(world.size(), 1);
    const bool server = layout.is_server(world.rank());
    auto local = world.split(server ? 1 : 0, world.rank());
    if (server) {
      (void)rocpanda::run_server(world, *local, env, fs, layout, {});
      return;
    }
    rocpanda::ClientOptions opts;
    opts.client_buffering = true;
    rocpanda::RocpandaClient client(world, env, layout, opts);
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b1 = make_block(local->rank() * 2, 10);
    auto b2 = make_block(local->rank() * 2 + 1, 10);
    w.register_pane(b1.id(), &b1);
    w.register_pane(b2.id(), &b2);

    std::atomic<bool> done{false};
    roc::Thread poller([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto s = client.stats();
        EXPECT_LE(s.blocks_sent, s.write_calls * 2);
      }
    });

    for (int snap = 0; snap < kSnapshots; ++snap)
      client.write_attribute(
          com, IoRequest{"fluid", "all", "ship_" + std::to_string(snap),
                         static_cast<double>(snap)});
    client.sync();
    done.store(true, std::memory_order_release);
    poller.join();

    const auto s = client.stats();
    EXPECT_EQ(s.write_calls, static_cast<uint64_t>(kSnapshots));
    EXPECT_EQ(s.blocks_sent, static_cast<uint64_t>(kSnapshots) * 2);
    EXPECT_EQ(s.bytes_sent, s.bytes_buffered);
    client.shutdown();
  });
}

/// Four writers record spans and instants while one thread drains the
/// rings with collect_trace() and another dumps them: the relaxed-atomic
/// ring must hand every event to the collector exactly once or count it in
/// `dropped`, never return one torn, and let the dump read concurrently.
/// Each writer laps its ring three times, so the drainer loses races with
/// the wrapping writer.  Every tick instant carries its round number as
/// detail and, as its parent, the span of the same round.
TEST(RaceTest, TraceRingHammer) {
  constexpr int kSpans = static_cast<int>(telemetry::kTraceRingCapacity);
  const std::string path = testing::TempDir() + "/race_flight_hammer.json";
  (void)telemetry::collect_trace();  // drop anything from earlier tests
  telemetry::set_trace_enabled(true);
  std::atomic<bool> done{false};
  std::vector<telemetry::Trace> batches;
  roc::Thread drainer([&] {
    while (!done.load(std::memory_order_acquire))
      batches.push_back(telemetry::collect_trace());
  });
  roc::Thread dumper([&] {
    while (!done.load(std::memory_order_acquire))
      (void)telemetry::flight::dump_now("hammer", path.c_str());
  });

  std::vector<roc::Thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([t] {
      telemetry::set_thread_name("hammer " + std::to_string(t));
      for (int i = 0; i < kSpans; ++i) {
        ROC_TRACE_SPAN_D("race", "span", std::to_string(i));
        ROC_TRACE_INSTANT_D("race", "tick", std::to_string(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  drainer.join();
  dumper.join();
  batches.push_back(telemetry::collect_trace());
  telemetry::set_trace_enabled(false);
  std::remove(path.c_str());

  std::uint64_t collected = 0, dropped = 0;
  std::set<std::tuple<int, std::string, std::string>> seen;
  std::map<std::uint64_t, const telemetry::TraceEvent*> spans;
  for (const auto& batch : batches) {
    dropped += batch.dropped;
    for (const auto& ev : batch.events) {
      ++collected;
      ASSERT_STREQ(ev.category, "race");
      const std::string name = ev.name;
      ASSERT_TRUE(name == "span" || name == "tick") << name;
      ASSERT_EQ(ev.dur >= 0.0, name == "span");
      const int round = std::stoi(ev.detail);
      ASSERT_TRUE(round >= 0 && round < kSpans &&
                  std::to_string(round) == ev.detail);
      EXPECT_TRUE(seen.emplace(ev.tid, name, ev.detail).second)
          << "collected twice: " << name << " " << ev.detail;
      if (name == "span") spans[ev.span_id] = &ev;
    }
  }
  for (const auto& batch : batches) {
    for (const auto& ev : batch.events) {
      const auto parent = spans.find(ev.parent_id);
      if (std::string(ev.name) != "tick" || parent == spans.end()) continue;
      EXPECT_EQ(parent->second->detail, ev.detail);
      EXPECT_EQ(parent->second->tid, ev.tid);
    }
  }
  EXPECT_EQ(collected + dropped, 4u * 2u * kSpans);
}

#if defined(ROCPIO_CHECK)
/// The allocation interposer under concurrency: per-thread counters must
/// be exact with siblings allocating at full tilt (they are thread-local
/// by design -- TSan verifies no shared mutable state backs them), and the
/// process totals must observe every allocation exactly once.
TEST(RaceTest, AllocCounterHammer) {
  constexpr int kThreads = 4;
  constexpr int kAllocs = 64;
  const std::uint64_t total0 = check::total_allocs();
  std::atomic<int> exact{0};
  std::atomic<std::uint64_t> charged_sum{0};
  {
    std::vector<roc::Thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::uint64_t a0 = check::thread_allocs();
        const std::uint64_t c0 = check::thread_charged_allocs();
        for (int i = 0; i < kAllocs; ++i) {
          auto* p = new int(t + i);
          asm volatile("" : : "g"(p) : "memory");
          delete p;
        }
        const bool ok = check::thread_allocs() - a0 == kAllocs &&
                        check::thread_frees() >= kAllocs;
        charged_sum.fetch_add(check::thread_charged_allocs() - c0,
                              std::memory_order_relaxed);
        exact.fetch_add(ok ? 1 : 0, std::memory_order_relaxed);
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(exact.load(), kThreads);
  // Every hammer allocation is unsanctioned (no exempt bracket).
  EXPECT_EQ(charged_sum.load(), std::uint64_t{kThreads} * kAllocs);
  EXPECT_GE(check::total_allocs() - total0,
            std::uint64_t{kThreads} * kAllocs);
}
#endif  // ROCPIO_CHECK

TEST(RaceTest, LoggerHammer) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);  // exercise the lock, not stderr
  std::vector<roc::Thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kRounds; ++i)
        log_line(LogLevel::kDebug,
                 "race " + std::to_string(t) + ":" + std::to_string(i));
    });
  }
  for (auto& t : threads) t.join();
  set_log_level(before);
}

}  // namespace
}  // namespace roc
