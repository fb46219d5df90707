/// \file rocpanda_failure_test.cpp
/// \brief A Rocpanda server's failure reaches every one of its clients as an
/// exception from the client's next call, never as a hang: file-system
/// failures under every buffering mode on both substrates, clients that
/// disagree on a collective (whose failed server leaves its file
/// uncommitted), and a restart where one of two servers cannot read its
/// file.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>

#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "roccom/roccom.h"
#include "rocpanda/client.h"
#include "rocpanda/server.h"
#include "shdf/reader.h"
#include "sim/platform.h"
#include "sim/sim_comm.h"
#include "sim/sim_env.h"
#include "sim/sim_fs.h"
#include "sim/simulation.h"
#include "test_fs.h"
#include "vfs/vfs.h"

namespace roc::rocpanda {
namespace {

using roccom::IoRequest;
using roccom::Roccom;

/// A client's body: its client object and its index among the clients.
using ClientBody = std::function<void(RocpandaClient&, int)>;

struct Deployment {
  bool on_sim = false;
  int nclients = 2;
  int nservers = 1;
  uint64_t crash_at = UINT64_MAX;  ///< First file-system op that fails.
  ServerOptions server;
  ClientOptions client;
};

/// Runs `d` over `mem` on ThreadComm threads or on the simulator: the
/// servers use a CrashingFileSystem over it, each client runs `body` and
/// shuts down.  Rethrows what comm::World::run or Simulation::run does.
void run(const Deployment& d, vfs::MemFileSystem& mem, const ClientBody& body) {
  const int nranks = d.nclients + d.nservers;
  auto rank = [&](comm::Comm& world, comm::Env& env, vfs::FileSystem& fs) {
    const Layout layout(world.size(), d.nservers);
    const bool server = layout.is_server(world.rank());
    auto local = world.split(server ? 1 : 0, world.rank());
    if (server) {
      (void)run_server(world, *local, env, fs, layout, d.server);
      return;
    }
    RocpandaClient client(world, env, layout, d.client);
    body(client, local->rank());
    client.shutdown();
  };
  if (!d.on_sim) {
    testfs::CrashingFileSystem fs(mem);
    fs.crash_at = d.crash_at;
    comm::World::run(nranks, [&](comm::Comm& world) {
      comm::RealEnv env;
      rank(world, env, fs);
    });
    return;
  }
  sim::Simulation sim(sim::Platform{});
  sim::SimFileSystem sim_fs(sim, mem);
  testfs::CrashingFileSystem fs(sim_fs);
  fs.crash_at = d.crash_at;
  auto world = std::make_shared<sim::SimWorld>(sim, nranks);
  for (int r = 0; r < nranks; ++r)
    sim.add_process([&, world](sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());
      rank(*comm, env, fs);
    });
  sim.run();
}

/// One 4^3 fluid block registered as pane `id` of window "w".
struct OnePane {
  explicit OnePane(int id) : block(mesh::MeshBlock::structured(id, {4, 4, 4})) {
    mesh::add_fluid_schema(block);
    auto& p = block.field("pressure");
    std::iota(p.data.begin(), p.data.end(), 10000.0 * id);
    com.create_window("w").register_pane(id, &block);
  }
  mesh::MeshBlock block;
  Roccom com;
};

// --- server write failures ----------------------------------------------------

/// (on the simulator, active buffering, client buffering)
using Modes = std::tuple<bool, bool, bool>;

class ServerWriteFailure : public ::testing::TestWithParam<Modes> {};

TEST_P(ServerWriteFailure, ReachesEveryClientAndRunRethrowsIt) {
  // Every op from the fourth on fails: the server's first block write
  // (write-through) or its first background or sync-time write (active
  // buffering).  Before the server carried its failure in its replies, the
  // clients blocked forever in write_attribute or sync.
  const auto [on_sim, active, hierarchy] = GetParam();
  Deployment d;
  d.on_sim = on_sim;
  d.crash_at = 3;
  d.server.active_buffering = active;
  d.client.client_buffering = hierarchy;
  vfs::MemFileSystem mem;
  std::atomic<int> write_failures{0}, sync_failures{0}, later_failures{0};
  EXPECT_THROW(
      run(d, mem,
          [&](RocpandaClient& client, int me) {
            OnePane pane(me);
            const IoRequest req{"w", "all", "snap", 0.0};
            try {
              client.write_attribute(pane.com, req);
            } catch (const IoError&) {
              ++write_failures;
            }
            try {
              client.sync();
            } catch (const IoError&) {
              ++sync_failures;
            }
            // The failure is sticky: every later call throws it again.
            auto fails = [&](const std::function<void()>& call) {
              try {
                call();
              } catch (const IoError&) {
                ++later_failures;
              }
            };
            fails([&] { client.write_attribute(pane.com, req); });
            fails([&] { client.sync(); });
            fails([&] { (void)client.list_panes("snap"); });
            fails([&] { (void)client.fetch_blocks("snap", {me}); });
          }),
      IoError);
  // Write-through with the server-side ack: the write itself reports it.
  if (!active && !hierarchy) {
    EXPECT_EQ(write_failures, d.nclients);
  }
  EXPECT_EQ(sync_failures, d.nclients);
  EXPECT_EQ(later_failures, 4 * d.nclients);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ServerWriteFailure,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<Modes>& info) {
      std::string name = std::get<0>(info.param) ? "Sim" : "Threads";
      name += std::get<1>(info.param) ? "_ActiveBuffering" : "_WriteThrough";
      name += std::get<2>(info.param) ? "_ClientBuffering" : "_Direct";
      return name;
    });

// --- clients that disagree on a collective ----------------------------------

TEST(MismatchedCollectives, SyncAgainstListIsAnErrorNotADeadlock) {
  Deployment d;
  d.on_sim = true;
  vfs::MemFileSystem mem;
  std::atomic<int> failures{0};
  EXPECT_THROW(run(d, mem,
                   [&](RocpandaClient& client, int me) {
                     try {
                       if (me == 0)
                         client.sync();
                       else
                         (void)client.list_panes("snap");
                     } catch (const InvalidArgument&) {
                       ++failures;
                     }
                   }),
               InvalidArgument);
  EXPECT_EQ(failures, d.nclients);
}

TEST(MismatchedCollectives, FailedServerLeavesItsOpenFileUncommitted) {
  // Write-through puts both blocks in the server's open file; the
  // collectives then fail the server.  Its file must keep its last
  // committed state (none): a failed server commits nothing, so a restart
  // never reads a snapshot the clients were told had failed.
  Deployment d;
  d.server.active_buffering = false;
  vfs::MemFileSystem mem;
  std::atomic<int> failures{0};
  EXPECT_THROW(run(d, mem,
                   [&](RocpandaClient& client, int me) {
                     OnePane pane(me);
                     client.write_attribute(pane.com,
                                            IoRequest{"w", "all", "snap", 0.0});
                     try {
                       if (me == 0)
                         client.sync();
                       else
                         (void)client.list_panes("snap");
                     } catch (const InvalidArgument&) {
                       ++failures;
                     }
                   }),
               InvalidArgument);
  EXPECT_EQ(failures, d.nclients);
  ASSERT_TRUE(mem.exists("snap_s0000.shdf"));
  EXPECT_THROW(shdf::Reader(mem, "snap_s0000.shdf"), FormatError);
}

TEST(MismatchedCollectives, RestartOfTwoFilesIsAnErrorNotAHang) {
  Deployment d;
  d.on_sim = true;
  vfs::MemFileSystem mem;
  std::atomic<int> failures{0};
  EXPECT_THROW(run(d, mem,
                   [&](RocpandaClient& client, int me) {
                     try {
                       (void)client.fetch_blocks(me == 0 ? "a" : "b", {me});
                     } catch (const InvalidArgument&) {
                       ++failures;
                     }
                   }),
               InvalidArgument);
  EXPECT_EQ(failures, d.nclients);
}

// --- a restart one of two servers cannot read -------------------------------

class UnreadableServerFile : public ::testing::TestWithParam<bool> {};

TEST_P(UnreadableServerFile, EveryClientOfEveryServerThrows) {
  // Two servers, two clients.  After a good snapshot, the second server's
  // file is replaced by 16 junk bytes, so on restart that server's first
  // read throws.  Before the servers shared their status in the restart's
  // allgathers, the other server blocked in the next allgather and both
  // clients blocked waiting for their replies.
  const bool list = GetParam();
  Deployment d;
  d.on_sim = true;
  d.nservers = 2;
  vfs::MemFileSystem mem;
  run(d, mem, [](RocpandaClient& client, int me) {
    OnePane pane(me);
    client.write_attribute(pane.com, IoRequest{"w", "all", "snap", 0.0});
    client.sync();
  });
  mem.open("snap_s0001.shdf", vfs::OpenMode::kTruncate)
      ->write("sixteen junk b.", 16);

  std::atomic<int> failures{0};
  EXPECT_THROW(run(d, mem,
                   [&](RocpandaClient& client, int me) {
                     try {
                       if (list)
                         (void)client.list_panes("snap");
                       else
                         (void)client.fetch_blocks("snap", {me});
                     } catch (const IoError&) {
                       ++failures;
                     }
                   }),
               IoError);
  EXPECT_EQ(failures, d.nclients);
}

INSTANTIATE_TEST_SUITE_P(Restart, UnreadableServerFile, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ListPanes" : "FetchBlocks";
                         });

}  // namespace
}  // namespace roc::rocpanda
