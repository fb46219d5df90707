/// \file comm_test.cpp
/// \brief The Comm contract -- p2p semantics, wildcards, probes,
/// collectives and communicator splitting -- run on both substrates
/// (ThreadComm and SimComm), plus the thread runtime's World launcher.

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <functional>
#include <numeric>

#include "comm/comm.h"
#include "comm/env.h"
#include "comm/thread_comm.h"
#include "sim/sim_comm.h"
#include "sim/simulation.h"

namespace roc::comm {
namespace {

std::vector<unsigned char> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}
std::string string_of(const std::vector<unsigned char>& v) {
  return {v.begin(), v.end()};
}
std::string string_of(const roc::SharedBuffer& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// The two Comm substrates the contract cases run on.
enum class Substrate { kThread, kSim };

/// Runs `body` on `n` processes of `substrate`, each with its own world
/// communicator; returns when every process has returned.
void run_world(Substrate substrate, int n,
               const std::function<void(Comm&)>& body) {
  if (substrate == Substrate::kThread) {
    World::run(n, body);
    return;
  }
  sim::Simulation sim{sim::Platform{}};
  auto world = std::make_shared<sim::SimWorld>(sim, n);
  for (int r = 0; r < n; ++r)
    sim.add_process([world, &body](sim::ProcContext&) {
      auto comm = world->attach();
      body(*comm);
    });
  sim.run();
}

/// Defines one contract case, `void <thread_suite>_<name>(Substrate)`, and
/// registers it twice: as `thread_suite.name` on ThreadComm and as
/// `sim_suite.name` on SimComm.
#define COMM_CONTRACT_TEST(thread_suite, sim_suite, name)             \
  void thread_suite##_##name(Substrate substrate);                    \
  TEST(thread_suite, name) {                                          \
    thread_suite##_##name(Substrate::kThread);                        \
  }                                                                   \
  TEST(sim_suite, name) { thread_suite##_##name(Substrate::kSim); }   \
  void thread_suite##_##name(Substrate substrate)

TEST(World, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::atomic<uint64_t> rank_mask{0};
  World::run(8, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 8);
    ++count;
    rank_mask |= (1ULL << comm.rank());
  });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(rank_mask.load(), 0xFFu);
}

#if defined(__linux__)
TEST(World, RanksKeepTheProcessAffinityMask) {
  // Ranks start spread over the CPUs, but the binding is not kept: every
  // rank may still run on any CPU the process may use.
  cpu_set_t process;
  ASSERT_EQ(sched_getaffinity(0, sizeof process, &process), 0);
  std::atomic<int> mismatches{0};
  World::run(6, [&](Comm&) {
    cpu_set_t mine;
    if (sched_getaffinity(0, sizeof mine, &mine) != 0 ||
        !CPU_EQUAL(&mine, &process))
      ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}
#endif

TEST(World, PropagatesFirstException) {
  EXPECT_THROW(World::run(4,
                          [](Comm& comm) {
                            if (comm.rank() == 2)
                              throw IoError("boom from rank 2");
                            // Other ranks return normally.
                          }),
               IoError);
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, PingPong) {
  run_world(substrate, 2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, bytes_of("ping"));
      auto m = comm.recv(1, 8);
      EXPECT_EQ(string_of(m.payload), "pong");
      EXPECT_EQ(m.source, 1);
      EXPECT_EQ(m.tag, 8);
    } else {
      auto m = comm.recv(0, 7);
      EXPECT_EQ(string_of(m.payload), "ping");
      comm.send(0, 8, bytes_of("pong"));
    }
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, NonOvertakingSameSourceAndTag) {
  run_world(substrate, 2, [](Comm& comm) {
    constexpr int kN = 100;
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i)
        comm.send(1, 3, &i, sizeof(i));
    } else {
      for (int i = 0; i < kN; ++i) {
        auto m = comm.recv(0, 3);
        int v;
        std::memcpy(&v, m.payload.data(), sizeof(v));
        EXPECT_EQ(v, i);
      }
    }
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, TagSelectivity) {
  run_world(substrate, 2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, bytes_of("one"));
      comm.send(1, 2, bytes_of("two"));
    } else {
      // Receive out of send order by selecting tags.
      auto m2 = comm.recv(0, 2);
      auto m1 = comm.recv(0, 1);
      EXPECT_EQ(string_of(m2.payload), "two");
      EXPECT_EQ(string_of(m1.payload), "one");
    }
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, AnySourceAnyTag) {
  run_world(substrate, 4, [](Comm& comm) {
    if (comm.rank() == 0) {
      int seen = 0;
      for (int i = 0; i < 3; ++i) {
        auto m = comm.recv(kAnySource, kAnyTag);
        EXPECT_GE(m.source, 1);
        EXPECT_LE(m.source, 3);
        seen |= 1 << m.source;
      }
      EXPECT_EQ(seen, 0b1110);
    } else {
      comm.send(0, 10 + comm.rank(), bytes_of("hi"));
    }
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, ProbeDescribesWithoutConsuming) {
  run_world(substrate, 2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, bytes_of("payload!"));
    } else {
      Status st = comm.probe(kAnySource, kAnyTag);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
      EXPECT_EQ(st.bytes, 8u);
      // Still there:
      Status st2;
      EXPECT_TRUE(comm.iprobe(0, 5, &st2));
      auto m = comm.recv(st.source, st.tag);
      EXPECT_EQ(string_of(m.payload), "payload!");
      EXPECT_FALSE(comm.iprobe(kAnySource, kAnyTag, &st2));
    }
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, IprobeReturnsFalseWhenEmpty) {
  run_world(substrate, 1, [](Comm& comm) {
    Status st;
    EXPECT_FALSE(comm.iprobe(kAnySource, kAnyTag, &st));
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, EmptyMessageSignal) {
  run_world(substrate, 2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.signal(1, 9);
    } else {
      auto m = comm.recv(0, 9);
      EXPECT_TRUE(m.payload.empty());
    }
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, SharedBufferSendEnqueuesReference) {
  // The zero-copy contract: sending a SharedBuffer ships a reference, so
  // the receiver observes the SAME storage, not a copy.
  std::atomic<const unsigned char*> sent{nullptr};
  run_world(substrate, 2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      SharedBuffer buf = SharedBuffer::adopt({'z', 'c', 'p'});
      sent.store(buf.data());
      comm.send(1, 4, buf);
      EXPECT_GE(buf.use_count(), 1);  // sender's handle still valid
    } else {
      auto m = comm.recv(0, 4);
      EXPECT_EQ(m.payload.data(), sent.load());
      EXPECT_EQ(string_of(m.payload), "zcp");
    }
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, SendvDeliversGatheredChain) {
  run_world(substrate, 2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<unsigned char> borrowed = {'l', 'l'};
      BufferChain chain;
      chain.append(SharedBuffer::adopt({'h', 'e'}));
      chain.append_borrowed(borrowed.data(), borrowed.size());
      chain.append(SharedBuffer::adopt({'o'}));
      comm.sendv(1, 6, chain);
      // Borrowed bytes may be reused as soon as sendv returns.
    } else {
      auto m = comm.recv(0, 6);
      EXPECT_EQ(string_of(m.payload), "hello");
    }
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, SendToInvalidRankThrows) {
  run_world(substrate, 1, [](Comm& comm) {
    EXPECT_THROW(comm.send(5, 0, nullptr, 0), InvalidArgument);
    EXPECT_THROW(comm.send(-1, 0, nullptr, 0), InvalidArgument);
  });
}

COMM_CONTRACT_TEST(ThreadComm, SimComm, ProbesOfInvalidSourceThrow) {
  run_world(substrate, 2, [](Comm& comm) {
    Status st;
    // ASSERT first: a probe that skips the check waits forever on a rank
    // that cannot send.
    ASSERT_THROW((void)comm.iprobe(comm.size(), 0, &st), InvalidArgument);
    ASSERT_THROW((void)comm.iprobe(-2, kAnyTag, &st), InvalidArgument);
    ASSERT_THROW((void)comm.probe(comm.size(), 0), InvalidArgument);
    EXPECT_THROW((void)comm.recv(-2, 0), InvalidArgument);
  });
}

COMM_CONTRACT_TEST(Collectives, SimCollectives, Barrier) {
  // All ranks increment before the barrier; after it everyone sees the full
  // count.
  std::atomic<int> before{0};
  run_world(substrate, 6, [&](Comm& comm) {
    ++before;
    comm.barrier();
    EXPECT_EQ(before.load(), 6);
  });
}

COMM_CONTRACT_TEST(Collectives, SimCollectives, Bcast) {
  run_world(substrate, 5, [](Comm& comm) {
    std::vector<unsigned char> data;
    if (comm.rank() == 2) data = bytes_of("from two");
    comm.bcast(data, 2);
    EXPECT_EQ(string_of(data), "from two");
  });
}

COMM_CONTRACT_TEST(Collectives, SimCollectives, GatherIndexedByRank) {
  run_world(substrate, 4, [](Comm& comm) {
    auto mine = bytes_of(std::string(1, static_cast<char>('a' + comm.rank())));
    auto all = comm.gather(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r)
        EXPECT_EQ(string_of(all[static_cast<size_t>(r)]),
                  std::string(1, static_cast<char>('a' + r)));
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

COMM_CONTRACT_TEST(Collectives, SimCollectives, AllgatherVariableSizes) {
  run_world(substrate, 4, [](Comm& comm) {
    // Rank r contributes r bytes (rank 0 contributes an empty payload).
    std::vector<unsigned char> mine(static_cast<size_t>(comm.rank()),
                                    static_cast<unsigned char>(comm.rank()));
    auto all = comm.allgather(mine);
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(all[static_cast<size_t>(r)].size(), static_cast<size_t>(r));
      for (auto b : all[static_cast<size_t>(r)])
        EXPECT_EQ(b, static_cast<unsigned char>(r));
    }
  });
}

COMM_CONTRACT_TEST(Collectives, SimCollectives, TypedReductions) {
  run_world(substrate, 5, [](Comm& comm) {
    const double r = comm.rank();
    EXPECT_DOUBLE_EQ(allreduce(comm, r, std::plus<>()), 0 + 1 + 2 + 3 + 4);
    EXPECT_DOUBLE_EQ(allreduce_max(comm, r), 4);
    EXPECT_DOUBLE_EQ(
        allreduce(comm, r, [](double a, double b) { return a < b ? a : b; }),
        0);
    EXPECT_EQ(allreduce(comm, comm.rank() * 10, std::plus<>()), 100);
  });
}

COMM_CONTRACT_TEST(Collectives, SimCollectives,
                   BcastAndGatherLargePayloadsAllRoots) {
  // Binomial-tree paths exercised from every root with multi-KB payloads.
  run_world(substrate, 5, [](Comm& comm) {
    for (int root = 0; root < 5; ++root) {
      std::vector<unsigned char> data;
      if (comm.rank() == root)
        data.assign(10000, static_cast<unsigned char>(root));
      comm.bcast(data, root);
      ASSERT_EQ(data.size(), 10000u);
      EXPECT_EQ(data[1234], static_cast<unsigned char>(root));

      std::vector<unsigned char> mine(
          static_cast<size_t>(100 + comm.rank()),
          static_cast<unsigned char>(comm.rank()));
      const auto all = comm.gather(mine, root);
      if (comm.rank() == root) {
        for (int r = 0; r < 5; ++r) {
          ASSERT_EQ(all[static_cast<size_t>(r)].size(),
                    static_cast<size_t>(100 + r));
          EXPECT_EQ(all[static_cast<size_t>(r)][0],
                    static_cast<unsigned char>(r));
        }
      }
    }
  });
}

COMM_CONTRACT_TEST(Split, SimSplit, GroupsByColorOrderedByKey) {
  run_world(substrate, 6, [](Comm& comm) {
    // Evens and odds; key reverses the order within each group.
    const int color = comm.rank() % 2;
    auto sub = comm.split(color, -comm.rank());
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->size(), 3);
    // Highest old rank gets new rank 0 (smallest key).
    const int expected_new_rank = (5 - comm.rank()) / 2 - ((comm.rank() % 2) ? 0 : 0);
    // For evens {0,2,4} with keys {0,-2,-4}: order 4,2,0.
    // For odds  {1,3,5} with keys {-1,-3,-5}: order 5,3,1.
    int pos = 0;
    for (int r = 5; r >= 0; --r) {
      if (r % 2 != comm.rank() % 2) continue;
      if (r == comm.rank()) break;
      ++pos;
    }
    EXPECT_EQ(sub->rank(), pos);
    (void)expected_new_rank;

    // The sub-communicator works for messaging.
    const double sum = allreduce(*sub, 1.0, std::plus<>());
    EXPECT_DOUBLE_EQ(sum, 3.0);
  });
}

COMM_CONTRACT_TEST(Split, SimSplit, NegativeColorYieldsNull) {
  run_world(substrate, 4, [](Comm& comm) {
    auto sub = comm.split(comm.rank() == 0 ? -1 : 0, comm.rank());
    if (comm.rank() == 0) {
      EXPECT_EQ(sub, nullptr);
    } else {
      ASSERT_NE(sub, nullptr);
      EXPECT_EQ(sub->size(), 3);
      sub->barrier();
    }
  });
}

COMM_CONTRACT_TEST(Split, SimSplit, ParentAndChildTrafficDoNotCross) {
  run_world(substrate, 4, [](Comm& comm) {
    auto sub = comm.split(comm.rank() / 2, comm.rank());
    // Same-tag messages on parent and child must not cross-match.
    if (comm.rank() == 0) {
      comm.send(1, 42, bytes_of("parent"));
      sub->send(1, 42, bytes_of("child"));
    } else if (comm.rank() == 1) {
      auto c = sub->recv(0, 42);
      auto p = comm.recv(0, 42);
      EXPECT_EQ(string_of(c.payload), "child");
      EXPECT_EQ(string_of(p.payload), "parent");
    }
    comm.barrier();
  });
}

COMM_CONTRACT_TEST(Split, SimSplit, SplitOfSplit) {
  run_world(substrate, 8, [](Comm& comm) {
    auto half = comm.split(comm.rank() / 4, comm.rank());  // two groups of 4
    ASSERT_NE(half, nullptr);
    auto quarter = half->split(half->rank() / 2, half->rank());
    ASSERT_NE(quarter, nullptr);
    EXPECT_EQ(quarter->size(), 2);
    EXPECT_DOUBLE_EQ(allreduce(*quarter, 1.0, std::plus<>()), 2.0);
  });
}

TEST(RealEnv, GatePredicateLoop) {
  RealEnv env;
  auto gate = env.make_gate();
  bool flag = false;
  auto worker = env.spawn_worker([&] {
    GateLock lock(*gate);
    flag = true;
    gate->notify_all();
  });
  {
    gate->lock();
    while (!flag) gate->wait();
    gate->unlock();
  }
  worker->join();
  EXPECT_TRUE(flag);
}

TEST(RealEnv, NowAdvances) {
  RealEnv env;
  const double t0 = env.now();
  env.compute(0.01);
  EXPECT_GE(env.now() - t0, 0.009);
}

}  // namespace
}  // namespace roc::comm
