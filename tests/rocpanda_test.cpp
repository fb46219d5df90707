/// \file rocpanda_test.cpp
/// \brief Tests for Rocpanda: layout/placement, the client/server write
/// protocol with active buffering (incl. overflow spill), sync, collective
/// restart with different server counts, and shutdown.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <numeric>

#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "roccom/block_wire.h"
#include "roccom/blockio.h"
#include "rocpanda/client.h"
#include "rocpanda/layout.h"
#include "rocpanda/server.h"
#include "rocpanda/wire.h"
#include "shdf/reader.h"
#include "shdf/writer.h"
#include "util/serialize.h"
#include "vfs/vfs.h"

namespace roc::rocpanda {
namespace {

using roccom::IoRequest;
using roccom::Roccom;

mesh::MeshBlock make_block(int id, int n = 4) {
  auto b = mesh::MeshBlock::structured(id, {n, n, n});
  mesh::add_fluid_schema(b);
  auto& p = b.field("pressure");
  std::iota(p.data.begin(), p.data.end(), static_cast<double>(id * 10000));
  for (size_t i = 0; i < b.coords().size(); ++i)
    b.coords()[i] = static_cast<double>(id) + 0.001 * static_cast<double>(i);
  return b;
}

// --- layout ------------------------------------------------------------------

TEST(Layout, PaperPlacementRanksZeroAndMultiples) {
  // n=15 clients + 1 server per 16-way node: servers at 0, 16, 32 ...
  const Layout l(48, 3);
  EXPECT_EQ(l.group_size(), 16);
  EXPECT_TRUE(l.is_server(0));
  EXPECT_TRUE(l.is_server(16));
  EXPECT_TRUE(l.is_server(32));
  EXPECT_FALSE(l.is_server(1));
  EXPECT_FALSE(l.is_server(15));
  EXPECT_EQ(l.nclients(), 45);
  EXPECT_EQ(l.server_of_client(1), 0);
  EXPECT_EQ(l.server_of_client(15), 0);
  EXPECT_EQ(l.server_of_client(17), 16);
  EXPECT_EQ(l.server_of_client(47), 32);
  EXPECT_EQ(l.clients_of_server(0).size(), 15u);
  EXPECT_EQ(l.server_index(32), 2);
  EXPECT_EQ(l.server_world_rank(2), 32);
}

TEST(Layout, EightToOneRatio) {
  const Layout l = Layout::with_ratio(18, 8);
  EXPECT_EQ(l.nservers(), 2);
  EXPECT_EQ(l.nclients(), 16);
  const Layout l2 = Layout::with_ratio(72, 8);
  EXPECT_EQ(l2.nservers(), 8);
  EXPECT_EQ(l2.nclients(), 64);
}

TEST(Layout, ClientIndicesDenseAndOrdered) {
  const Layout l(10, 3);  // group 4: servers 0,4,8
  std::vector<int> indices;
  for (int r = 0; r < 10; ++r)
    if (!l.is_server(r)) indices.push_back(l.client_index(r));
  std::vector<int> expect(indices.size());
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(indices, expect);
}

TEST(Layout, UnevenLastGroup) {
  const Layout l(10, 3);
  EXPECT_EQ(l.clients_of_server(8), std::vector<int>{9});
  EXPECT_EQ(l.server_of_client(9), 8);
}

TEST(Layout, InvalidConfigurationsRejected) {
  EXPECT_THROW(Layout(1, 1), InvalidArgument);
  EXPECT_THROW(Layout(4, 0), InvalidArgument);
  EXPECT_THROW(Layout(4, 4), InvalidArgument);
}

// --- protocol helpers ----------------------------------------------------------

/// Runs `clients` client bodies + servers under one world.  The client body
/// gets (world, layout, client_comm, client object).
void run_deployment(
    int nclients, int nservers, vfs::FileSystem& fs,
    const ServerOptions& server_opts,
    const std::function<void(comm::Comm&, const Layout&, comm::Comm&,
                             RocpandaClient&)>& client_body) {
  const int world_size = nclients + nservers;
  comm::World::run(world_size, [&](comm::Comm& world) {
    comm::RealEnv env;
    const Layout layout(world.size(), nservers);
    const bool server = layout.is_server(world.rank());
    auto local = world.split(server ? 1 : 0, world.rank());
    if (server) {
      (void)run_server(world, *local, env, fs, layout, server_opts);
    } else {
      RocpandaClient client(world, env, layout);
      client_body(world, layout, *local, client);
      client.shutdown();
    }
  });
}

TEST(Rocpanda, CollectiveWriteProducesOneFilePerServer) {
  vfs::MemFileSystem fs;
  run_deployment(6, 2, fs, ServerOptions{},
                 [&](comm::Comm&, const Layout& layout, comm::Comm& clients,
                     RocpandaClient& panda) {
                   Roccom com;
                   auto& w = com.create_window("fluid");
                   auto b = make_block(clients.rank());
                   w.register_pane(b.id(), &b);
                   panda.write_attribute(
                       com, IoRequest{"fluid", "all", "snap", 0.0});
                   panda.sync();
                   EXPECT_EQ(layout.nservers(), 2);
                 });
  EXPECT_EQ(fs.list("snap_s").size(), 2u);  // files = servers, not clients
  // All six blocks are in the two files.
  size_t blocks = 0;
  for (const auto& path : fs.list("snap_s")) {
    shdf::Reader r(fs, path);
    blocks += roccom::pane_ids_in_file(r, "fluid").size();
  }
  EXPECT_EQ(blocks, 6u);
}

TEST(Rocpanda, WriteReadRoundTripSameDeployment) {
  vfs::MemFileSystem fs;
  run_deployment(
      4, 1, fs, ServerOptions{},
      [&](comm::Comm&, const Layout&, comm::Comm& clients,
          RocpandaClient& panda) {
        Roccom com;
        auto& w = com.create_window("fluid");
        auto b1 = make_block(clients.rank() * 2);
        auto b2 = make_block(clients.rank() * 2 + 1, 5);
        w.register_pane(b1.id(), &b1);
        w.register_pane(b2.id(), &b2);
        const auto crc1 = b1.state_checksum();
        const auto crc2 = b2.state_checksum();

        panda.write_attribute(com, IoRequest{"fluid", "all", "rt", 2.0});
        b1.field("pressure").data.assign(b1.field("pressure").data.size(),
                                         -1.0);
        b2.coords().assign(b2.coords().size(), -1.0);
        panda.read_attribute(com, IoRequest{"fluid", "all", "rt", 2.0});
        EXPECT_EQ(b1.state_checksum(), crc1);
        EXPECT_EQ(b2.state_checksum(), crc2);
      });
}

TEST(Rocpanda, BufferReuseSafety) {
  vfs::MemFileSystem fs;
  run_deployment(2, 1, fs, ServerOptions{},
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   Roccom com;
                   auto& w = com.create_window("fluid");
                   auto b = make_block(clients.rank());
                   w.register_pane(b.id(), &b);
                   const auto saved = b.field("pressure").data;

                   panda.write_attribute(
                       com, IoRequest{"fluid", "all", "reuse", 0.0});
                   // Mutate immediately; the ack guarantees the server
                   // buffered our data.
                   b.field("pressure").data.assign(
                       b.field("pressure").data.size(), 1e9);
                   panda.sync();

                   const auto back = panda.fetch_blocks(
                       "reuse", {clients.rank()});
                   ASSERT_EQ(back.size(), 1u);
                   EXPECT_EQ(back[0].field("pressure").data, saved);
                 });
}

TEST(Rocpanda, RestartWithDifferentServerCount) {
  // Written with 3 servers, restarted with 1 and with 2 (paper §4.1).
  vfs::MemFileSystem fs;
  run_deployment(6, 3, fs, ServerOptions{},
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   Roccom com;
                   auto& w = com.create_window("fluid");
                   auto b = make_block(clients.rank());
                   w.register_pane(b.id(), &b);
                   panda.write_attribute(
                       com, IoRequest{"fluid", "all", "restart", 0.0});
                   panda.sync();
                 });
  ASSERT_EQ(fs.list("restart_s").size(), 3u);

  for (int nservers : {1, 2}) {
    run_deployment(
        6, nservers, fs, ServerOptions{},
        [&](comm::Comm&, const Layout&, comm::Comm& clients,
            RocpandaClient& panda) {
          // Each client requests its old block id.
          const auto blocks = panda.fetch_blocks("restart", {clients.rank()});
          ASSERT_EQ(blocks.size(), 1u);
          EXPECT_EQ(blocks[0].state_checksum(),
                    make_block(clients.rank()).state_checksum());
        });
  }
}

TEST(Rocpanda, RestartWithDifferentClientAssignment) {
  // 4 clients write 8 blocks; 2 clients read them back, 4 blocks each.
  vfs::MemFileSystem fs;
  run_deployment(4, 1, fs, ServerOptions{},
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   Roccom com;
                   auto& w = com.create_window("fluid");
                   auto b1 = make_block(clients.rank());
                   auto b2 = make_block(clients.rank() + 4);
                   w.register_pane(b1.id(), &b1);
                   w.register_pane(b2.id(), &b2);
                   panda.write_attribute(
                       com, IoRequest{"fluid", "all", "redistribute", 0.0});
                   panda.sync();
                 });
  run_deployment(2, 1, fs, ServerOptions{},
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   EXPECT_EQ(panda.list_panes("redistribute"),
                             (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
                   std::vector<int> mine;
                   for (int i = 0; i < 8; ++i)
                     if (i % 2 == clients.rank()) mine.push_back(i);
                   const auto blocks =
                       panda.fetch_blocks("redistribute", mine);
                   ASSERT_EQ(blocks.size(), 4u);
                   for (size_t i = 0; i < blocks.size(); ++i)
                     EXPECT_EQ(blocks[i].state_checksum(),
                               make_block(mine[i]).state_checksum());
                 });
}

TEST(Rocpanda, MissingBlockOnRestartThrows) {
  vfs::MemFileSystem fs;
  run_deployment(2, 1, fs, ServerOptions{},
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   Roccom com;
                   auto& w = com.create_window("fluid");
                   auto b = make_block(clients.rank());
                   w.register_pane(b.id(), &b);
                   panda.write_attribute(
                       com, IoRequest{"fluid", "all", "partial", 0.0});
                   panda.sync();
                 });
  run_deployment(2, 1, fs, ServerOptions{},
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   // These blocks were never written (distinct per client:
                   // two clients must not claim the same pane id).
                   EXPECT_THROW((void)panda.fetch_blocks(
                                    "partial", {clients.rank(),
                                                99 + clients.rank()}),
                                IoError);
                 });
}

// --- restart wire bytes --------------------------------------------------------

class RestartBlockBytes : public ::testing::TestWithParam<shdf::DirectoryKind> {
};

TEST_P(RestartBlockBytes, EqualTheMarshalledStoredBlockBehindTheStatus) {
  // One server file holds every shape a restart ships: a structured and an
  // unstructured block, a block without fields, a zero-value field and
  // several fields whose directory order is not their insertion order
  // under kIndexed.  The second half is appended, so a dead directory lies
  // between the records.
  mesh::LabScaleSpec spec;
  spec.fluid_blocks = 1;
  spec.solid_blocks = 1;
  spec.base_block_nodes = 4;
  const mesh::MeshBlock tets = mesh::make_lab_scale_rocket(spec).solid[0];
  mesh::MeshBlock solid = mesh::MeshBlock::unstructured(
      4, tets.node_count(), tets.connectivity());
  solid.coords() = tets.coords();
  solid.fields() = tets.fields();
  const mesh::MeshBlock fluid = make_block(1);
  const mesh::MeshBlock bare = mesh::MeshBlock::structured(2, {3, 2, 4});
  mesh::MeshBlock many = make_block(3);
  many.add_field("zeta", mesh::Centering::kElement, 2)
      .data.assign(2 * many.element_count(), 0.5);
  many.fields().push_back(mesh::Field{"empty", mesh::Centering::kNode, 3, {}});
  many.add_field("alpha", mesh::Centering::kNode, 1).data.assign(
      many.node_count(), -1.0);
  vfs::MemFileSystem fs;
  {
    shdf::Writer w(fs, "snap_s0000.shdf", GetParam());
    roccom::write_block(w, "fluid", fluid, "all", 0.5);
    roccom::write_block(w, "bare", bare, "all", 1.0);
  }
  {
    shdf::Writer w = shdf::Writer::append(fs, "snap_s0000.shdf");
    roccom::write_block(w, "solid", solid, "all", 1.5);
    roccom::write_block(w, "fluid", many, "all", 2.0);
  }
  // What the server sent before it read blocks into wire buffers: the
  // marshalled MeshBlock that read_block rebuilds.
  std::map<int32_t, std::vector<unsigned char>> want;
  {
    const shdf::Reader r(fs, "snap_s0000.shdf");
    for (const auto& b : roccom::blocks_in_file(r))
      want[b.pane_id] = roccom::WireBlock::serialize_chain(
                            roccom::read_block(r, b.window, b.pane_id), "all")
                            .to_vector();
  }
  ASSERT_EQ(want.size(), 4u);

  // A raw client asks for every pane and keeps the server's messages.
  std::map<int32_t, std::vector<unsigned char>> got;
  comm::World::run(2, [&](comm::Comm& world) {
    comm::RealEnv env;
    const Layout layout(world.size(), 1);
    auto local = world.split(layout.is_server(world.rank()) ? 1 : 0,
                             world.rank());
    if (layout.is_server(world.rank())) {
      (void)run_server(world, *local, env, fs, layout, ServerOptions{});
      return;
    }
    std::vector<int32_t> ids;
    for (const auto& [id, bytes] : want) ids.push_back(id);
    const int server = layout.server_of_client(world.rank());
    world.send(server, kTagCollective,
               CollectiveRequest{Collective::kRead, "snap", "", ids}
                   .serialize());
    auto reply = world.recv(server, kTagCollectiveReply);
    ByteReader rr(reply.payload.data(), reply.payload.size());
    check_status(rr);
    for (auto n = rr.get<uint32_t>(); n > 0; --n) {
      auto msg = world.recv(server, kTagReadBlock);
      ByteReader br(msg.payload.data(), msg.payload.size());
      check_status(br);
      const int32_t id = br.get<int32_t>();
      got[id].assign(msg.payload.data() + 1,
                     msg.payload.data() + msg.payload.size());
    }
    world.signal(server, kTagShutdown);
  });
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    DirectoryKinds, RestartBlockBytes,
    ::testing::Values(shdf::DirectoryKind::kIndexed,
                      shdf::DirectoryKind::kLinear),
    [](const ::testing::TestParamInfo<shdf::DirectoryKind>& info) {
      return info.param == shdf::DirectoryKind::kIndexed ? "Indexed"
                                                         : "Linear";
    });

TEST(Rocpanda, SnapshotExcludesFilesOfALongerBasename) {
  // "state_post" starts with "state_": its files must not join snapshot
  // "state", whether they hold the same pane ids or other ones.
  for (const int post_offset : {0, 10}) {
    vfs::MemFileSystem fs;
    run_deployment(2, 1, fs, ServerOptions{},
                   [&](comm::Comm&, const Layout&, comm::Comm& clients,
                       RocpandaClient& panda) {
                     Roccom com;
                     auto& w = com.create_window("fluid");
                     auto b = make_block(clients.rank());
                     w.register_pane(b.id(), &b);
                     panda.write_attribute(
                         com, IoRequest{"fluid", "all", "state", 0.0});
                     Roccom post_com;
                     auto& pw = post_com.create_window("fluid");
                     auto p = make_block(clients.rank() + post_offset, 5);
                     pw.register_pane(p.id(), &p);
                     panda.write_attribute(
                         post_com, IoRequest{"fluid", "all", "state_post", 0.0});
                     panda.sync();
                   });
    run_deployment(2, 2, fs, ServerOptions{},
                   [&](comm::Comm&, const Layout&, comm::Comm& clients,
                       RocpandaClient& panda) {
                     EXPECT_EQ(panda.list_panes("state"),
                               (std::vector<int>{0, 1}));
                     const auto blocks =
                         panda.fetch_blocks("state", {clients.rank()});
                     ASSERT_EQ(blocks.size(), 1u);
                     EXPECT_EQ(blocks[0].state_checksum(),
                               make_block(clients.rank()).state_checksum());
                   });
  }
}

TEST(Rocpanda, ActiveBufferingOverflowSpillsWithoutDataLoss) {
  vfs::MemFileSystem fs;
  ServerOptions opts;
  opts.buffer_capacity = 4 * 1024;  // far smaller than the data
  run_deployment(3, 1, fs, opts,
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   Roccom com;
                   auto& w = com.create_window("fluid");
                   std::vector<mesh::MeshBlock> blocks;
                   blocks.reserve(4);
                   for (int i = 0; i < 4; ++i)
                     blocks.push_back(make_block(clients.rank() * 4 + i, 8));
                   for (auto& b : blocks) w.register_pane(b.id(), &b);

                   panda.write_attribute(
                       com, IoRequest{"fluid", "all", "spill", 0.0});
                   panda.sync();
                   const auto back = panda.fetch_blocks(
                       "spill", {clients.rank() * 4});
                   EXPECT_EQ(back[0].state_checksum(),
                             blocks[0].state_checksum());
                 });
  // Everything is on disk.
  size_t total = 0;
  for (const auto& path : fs.list("spill_s")) {
    shdf::Reader r(fs, path);
    total += roccom::pane_ids_in_file(r, "fluid").size();
  }
  EXPECT_EQ(total, 12u);
}

TEST(Rocpanda, NoActiveBufferingStillCorrect) {
  vfs::MemFileSystem fs;
  ServerOptions opts;
  opts.active_buffering = false;
  run_deployment(4, 2, fs, opts,
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   Roccom com;
                   auto& w = com.create_window("fluid");
                   auto b = make_block(clients.rank());
                   w.register_pane(b.id(), &b);
                   panda.write_attribute(
                       com, IoRequest{"fluid", "all", "noab", 0.0});
                   panda.sync();
                   const auto back =
                       panda.fetch_blocks("noab", {clients.rank()});
                   EXPECT_EQ(back[0].state_checksum(), b.state_checksum());
                 });
}

TEST(Rocpanda, MultiSnapshotMultiWindowRun) {
  // The full GENx output pattern: several windows, back-to-back requests,
  // several snapshots, one sync at the end.
  vfs::MemFileSystem fs;
  run_deployment(
      6, 2, fs, ServerOptions{},
      [&](comm::Comm&, const Layout&, comm::Comm& clients,
          RocpandaClient& panda) {
        Roccom com;
        auto& wf = com.create_window("fluid");
        auto& ws = com.create_window("solid");
        auto bf = make_block(clients.rank());
        auto bs = make_block(clients.rank() + 6);
        wf.register_pane(bf.id(), &bf);
        ws.register_pane(bs.id(), &bs);

        for (int snap = 0; snap < 3; ++snap) {
          const std::string base = "run_" + std::to_string(snap);
          bf.field("pressure").data[0] = snap;
          panda.write_attribute(com, IoRequest{"fluid", "all", base,
                                               static_cast<double>(snap)});
          panda.write_attribute(com, IoRequest{"solid", "all", base,
                                               static_cast<double>(snap)});
        }
        panda.sync();
        EXPECT_EQ(panda.stats().write_calls, 6u);
        EXPECT_EQ(panda.stats().blocks_sent, 6u);
      });
  for (int snap = 0; snap < 3; ++snap) {
    const auto files = fs.list("run_" + std::to_string(snap) + "_s");
    ASSERT_EQ(files.size(), 2u);
    size_t fluid = 0, solid = 0;
    for (const auto& path : files) {
      shdf::Reader r(fs, path);
      fluid += roccom::pane_ids_in_file(r, "fluid").size();
      solid += roccom::pane_ids_in_file(r, "solid").size();
    }
    EXPECT_EQ(fluid, 6u);
    EXPECT_EQ(solid, 6u);
  }
}

TEST(Rocpanda, ZeroPaneClientParticipates) {
  // A client with no panes still performs the collective correctly.
  vfs::MemFileSystem fs;
  run_deployment(3, 1, fs, ServerOptions{},
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   Roccom com;
                   auto& w = com.create_window("fluid");
                   mesh::MeshBlock b;
                   if (clients.rank() != 1) {
                     b = make_block(clients.rank());
                     w.register_pane(b.id(), &b);
                   }
                   panda.write_attribute(
                       com, IoRequest{"fluid", "all", "zero", 0.0});
                   panda.sync();
                   const auto ids = panda.list_panes("zero");
                   EXPECT_EQ(ids, (std::vector<int>{0, 2}));
                 });
}

TEST(Rocpanda, SelectiveFieldWrite) {
  vfs::MemFileSystem fs;
  run_deployment(2, 1, fs, ServerOptions{},
                 [&](comm::Comm&, const Layout&, comm::Comm& clients,
                     RocpandaClient& panda) {
                   Roccom com;
                   auto& w = com.create_window("fluid");
                   auto b = make_block(clients.rank());
                   w.register_pane(b.id(), &b);
                   panda.write_attribute(
                       com, IoRequest{"fluid", "mesh", "sel", 0.0});
                   panda.write_attribute(
                       com, IoRequest{"fluid", "pressure", "sel", 0.0});
                   panda.sync();
                 });
  shdf::Reader r(fs, "sel_s0000.shdf");
  EXPECT_TRUE(r.has_dataset("fluid/block_000000/coords"));
  EXPECT_TRUE(r.has_dataset("fluid/block_000000/field:pressure"));
  EXPECT_FALSE(r.has_dataset("fluid/block_000000/field:velocity"));
}

// --- real filesystem -------------------------------------------------------

TEST(Rocpanda, WriteReadRoundTripOnPosix) {
  // The server's background writer on real files: the snapshot must read
  // back bit-identical.
  const auto root = std::filesystem::temp_directory_path() /
                    ("rocpio_panda_posix_" + std::to_string(::getpid()));
  {
    vfs::PosixFileSystem fs(root.string());
    run_deployment(
        4, 1, fs, ServerOptions{},
        [&](comm::Comm&, const Layout&, comm::Comm& clients,
            RocpandaClient& panda) {
          Roccom com;
          auto& w = com.create_window("fluid");
          auto b1 = make_block(clients.rank() * 2, 6);
          auto b2 = make_block(clients.rank() * 2 + 1, 5);
          w.register_pane(b1.id(), &b1);
          w.register_pane(b2.id(), &b2);
          const auto crc1 = b1.state_checksum();
          const auto crc2 = b2.state_checksum();
          panda.write_attribute(com, IoRequest{"fluid", "all", "art", 2.0});
          b1.field("pressure").data.assign(b1.field("pressure").data.size(),
                                           -1.0);
          b2.coords().assign(b2.coords().size(), -1.0);
          panda.read_attribute(com, IoRequest{"fluid", "all", "art", 2.0});
          EXPECT_EQ(b1.state_checksum(), crc1);
          EXPECT_EQ(b2.state_checksum(), crc2);
        });
  }
  std::filesystem::remove_all(root);
}

// --- client-side buffer hierarchy (extension; paper §6.1's "buffer
// hierarchy on both the clients and servers") ------------------------------

TEST(ClientBuffering, RoundTripAndBufferReuse) {
  vfs::MemFileSystem fs;
  const int nclients = 3, nservers = 1;
  comm::World::run(nclients + nservers, [&](comm::Comm& world) {
    comm::RealEnv env;
    const Layout layout(world.size(), nservers);
    auto local = world.split(layout.is_server(world.rank()) ? 1 : 0,
                             world.rank());
    if (layout.is_server(world.rank())) {
      (void)run_server(world, *local, env, fs, layout, ServerOptions{});
      return;
    }
    ClientOptions opts;
    opts.client_buffering = true;
    RocpandaClient client(world, env, layout, opts);
    Roccom com;
    auto& w = com.create_window("f");
    auto b = make_block(local->rank(), 5);
    w.register_pane(b.id(), &b);
    const auto saved = b.field("pressure").data;

    client.write_attribute(com, roccom::IoRequest{"f", "all", "cb", 0.0});
    // Buffer-reuse safety: mutate immediately after the call returns.
    b.field("pressure").data.assign(b.field("pressure").data.size(), -5.0);
    client.sync();
    EXPECT_GT(client.stats().bytes_buffered, 0u);

    const auto back = client.fetch_blocks("cb", {local->rank()});
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].field("pressure").data, saved);
    client.shutdown();
  });
}

TEST(ClientBuffering, BackPressureOnTinyBuffer) {
  vfs::MemFileSystem fs;
  comm::World::run(2, [&](comm::Comm& world) {
    comm::RealEnv env;
    const Layout layout(world.size(), 1);
    auto local = world.split(layout.is_server(world.rank()) ? 1 : 0,
                             world.rank());
    if (layout.is_server(world.rank())) {
      (void)run_server(world, *local, env, fs, layout, ServerOptions{});
      return;
    }
    ClientOptions opts;
    opts.client_buffering = true;
    opts.client_buffer_capacity = 1024;  // smaller than one snapshot
    RocpandaClient client(world, env, layout, opts);
    Roccom com;
    auto& w = com.create_window("f");
    auto b = make_block(0, 6);
    w.register_pane(0, &b);
    for (int snap = 0; snap < 4; ++snap) {
      b.field("pressure").data[0] = snap;
      client.write_attribute(
          com, roccom::IoRequest{"f", "all", "bp" + std::to_string(snap),
                                 0.0});
    }
    client.sync();
    EXPECT_GT(client.stats().backpressure_waits, 0u);
    // Last snapshot is intact despite the pressure.
    const auto back = client.fetch_blocks("bp3", {0});
    EXPECT_EQ(back[0].field("pressure").data[0], 3.0);
    client.shutdown();
  });
}

TEST(ClientBuffering, ShutdownDrainsOutstandingWrites) {
  vfs::MemFileSystem fs;
  comm::World::run(2, [&](comm::Comm& world) {
    comm::RealEnv env;
    const Layout layout(world.size(), 1);
    auto local = world.split(layout.is_server(world.rank()) ? 1 : 0,
                             world.rank());
    if (layout.is_server(world.rank())) {
      (void)run_server(world, *local, env, fs, layout, ServerOptions{});
      return;
    }
    {
      ClientOptions opts;
      opts.client_buffering = true;
      RocpandaClient client(world, env, layout, opts);
      Roccom com;
      auto& w = com.create_window("f");
      auto b = make_block(0);
      w.register_pane(0, &b);
      client.write_attribute(com, roccom::IoRequest{"f", "all", "sd", 0.0});
      // no sync: destructor-driven shutdown must not lose the snapshot
    }
  });
  // The snapshot reached the server and its file.
  shdf::Reader r(fs, "sd_s0000.shdf");
  EXPECT_EQ(roccom::pane_ids_in_file(r, "f"), std::vector<int>{0});
}

}  // namespace
}  // namespace roc::rocpanda
