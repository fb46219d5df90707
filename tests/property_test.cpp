/// \file property_test.cpp
/// \brief Property-style sweeps and failure injection across modules:
/// layout invariants over many shapes, deployment sweeps, buffer-capacity
/// sweeps, serialization fuzzing, file corruption, message storms, and
/// thread-vs-simulator equivalence.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "roccom/block_wire.h"
#include "roccom/blockio.h"
#include "rocpanda/client.h"
#include "rocpanda/server.h"
#include "shdf/reader.h"
#include "shdf/writer.h"
#include "sim/sim_comm.h"
#include "sim/sim_env.h"
#include "sim/sim_fs.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "vfs/vfs.h"

namespace roc {
namespace {

mesh::MeshBlock make_block(int id, int n = 4) {
  auto b = mesh::MeshBlock::structured(id, {n, n, n});
  mesh::add_fluid_schema(b);
  auto& p = b.field("pressure");
  std::iota(p.data.begin(), p.data.end(), static_cast<double>(id * 1000));
  return b;
}

// --- layout invariants over many shapes -------------------------------------

class LayoutProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LayoutProperty, PartitionIsConsistent) {
  const auto [world, nservers] = GetParam();
  const rocpanda::Layout l(world, nservers);

  int servers_seen = 0;
  std::set<int> client_indices;
  std::set<int> clients_via_servers;

  for (int r = 0; r < world; ++r) {
    if (l.is_server(r)) {
      ++servers_seen;
      const int idx = l.server_index(r);
      EXPECT_EQ(l.server_world_rank(idx), r);
      for (int c : l.clients_of_server(r)) {
        EXPECT_EQ(l.server_of_client(c), r)
            << "client " << c << " disagrees with server " << r;
        EXPECT_TRUE(clients_via_servers.insert(c).second)
            << "client " << c << " served twice";
      }
    } else {
      client_indices.insert(l.client_index(r));
    }
  }
  EXPECT_EQ(servers_seen, nservers);
  EXPECT_EQ(static_cast<int>(client_indices.size()), l.nclients());
  EXPECT_EQ(*client_indices.begin(), 0);
  EXPECT_EQ(*client_indices.rbegin(), l.nclients() - 1);
  EXPECT_EQ(clients_via_servers.size(),
            static_cast<size_t>(l.nclients()));
  // Every server has at least one client (no wasted processors).
  for (int s = 0; s < nservers; ++s)
    EXPECT_FALSE(l.clients_of_server(l.server_world_rank(s)).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LayoutProperty,
    ::testing::Values(std::pair{2, 1}, std::pair{3, 1}, std::pair{9, 1},
                      std::pair{10, 3}, std::pair{16, 1}, std::pair{18, 2},
                      std::pair{36, 4}, std::pair{48, 3}, std::pair{72, 8},
                      std::pair{100, 7}, std::pair{512, 32},
                      std::pair{17, 5}));

// --- Rocpanda deployment sweep -----------------------------------------------

class DeploymentSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DeploymentSweep, WriteSyncFetchRoundTrip) {
  const auto [nclients, nservers] = GetParam();
  vfs::MemFileSystem fs;
  comm::World::run(nclients + nservers, [&](comm::Comm& world) {
    comm::RealEnv env;
    const rocpanda::Layout layout(world.size(), nservers);
    auto local = world.split(layout.is_server(world.rank()) ? 1 : 0,
                             world.rank());
    if (layout.is_server(world.rank())) {
      (void)rocpanda::run_server(world, *local, env, fs, layout,
                                 rocpanda::ServerOptions{});
      return;
    }
    rocpanda::RocpandaClient client(world, env, layout);
    roccom::Roccom com;
    auto& w = com.create_window("f");
    // Irregular: client k owns k+1 blocks of varying size.
    std::vector<mesh::MeshBlock> blocks;
    int id = 0;
    for (int c = 0; c < local->rank(); ++c) id += c + 1;
    for (int i = 0; i <= local->rank(); ++i)
      blocks.push_back(make_block(id + i, 3 + (id + i) % 4));
    for (auto& b : blocks) w.register_pane(b.id(), &b);

    client.write_attribute(com, roccom::IoRequest{"f", "all", "dep", 0.0});
    client.sync();

    std::vector<int> mine;
    for (const auto& b : blocks) mine.push_back(b.id());
    const auto back = client.fetch_blocks("dep", mine);
    ASSERT_EQ(back.size(), blocks.size());
    for (size_t i = 0; i < back.size(); ++i)
      EXPECT_EQ(back[i].state_checksum(), blocks[i].state_checksum());
    client.shutdown();
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, DeploymentSweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 1},
                                           std::pair{3, 2}, std::pair{5, 2},
                                           std::pair{8, 1}, std::pair{8, 4},
                                           std::pair{9, 3}));

// --- server buffer capacity sweep ---------------------------------------------

class BufferCapacitySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferCapacitySweep, NoDataLossAtAnyCapacity) {
  vfs::MemFileSystem fs;
  rocpanda::ServerOptions opts;
  opts.buffer_capacity = GetParam();
  comm::World::run(4, [&](comm::Comm& world) {
    comm::RealEnv env;
    const rocpanda::Layout layout(world.size(), 1);
    auto local = world.split(layout.is_server(world.rank()) ? 1 : 0,
                             world.rank());
    if (layout.is_server(world.rank())) {
      (void)rocpanda::run_server(world, *local, env, fs, layout, opts);
      return;
    }
    rocpanda::RocpandaClient client(world, env, layout);
    roccom::Roccom com;
    auto& w = com.create_window("f");
    std::vector<mesh::MeshBlock> blocks;
    for (int i = 0; i < 3; ++i)
      blocks.push_back(make_block(local->rank() * 3 + i, 6));
    for (auto& b : blocks) w.register_pane(b.id(), &b);

    for (int snap = 0; snap < 2; ++snap)
      client.write_attribute(
          com, roccom::IoRequest{"f", "all", "cap" + std::to_string(snap),
                                 0.0});
    client.sync();
    const auto back =
        client.fetch_blocks("cap1", {local->rank() * 3, local->rank() * 3 + 2});
    EXPECT_EQ(back[0].state_checksum(), blocks[0].state_checksum());
    EXPECT_EQ(back[1].state_checksum(), blocks[2].state_checksum());
    client.shutdown();
  });
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferCapacitySweep,
                         ::testing::Values(uint64_t{1}, uint64_t{200},
                                           uint64_t{4096}, uint64_t{65536},
                                           UINT64_MAX));

// --- serialization fuzzing ------------------------------------------------------

TEST(Fuzz, TruncatedMeshBlockNeverCrashes) {
  auto b = make_block(7, 5);
  const auto bytes = roccom::WireBlock::serialize_chain(b, "all").to_vector();
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const size_t cut = rng.next_below(bytes.size());
    try {
      (void)roccom::decode_block(bytes.data(), cut);
      // Short prefixes can occasionally parse as an empty-ish block only
      // if all vector lengths happen to fit; tolerated as long as no UB.
    } catch (const Error&) {
      // expected
    }
  }
}

TEST(Fuzz, CorruptedMeshBlockNeverCrashes) {
  auto b = make_block(7, 5);
  auto bytes = roccom::WireBlock::serialize_chain(b, "all").to_vector();
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    auto copy = bytes;
    // Flip a few random bytes.
    for (int k = 0; k < 4; ++k)
      copy[rng.next_below(copy.size())] ^=
          static_cast<unsigned char>(1 + rng.next_below(255));
    try {
      (void)roccom::decode_block(copy.data(), copy.size());
    } catch (const Error&) {
      // expected
    }
  }
}

TEST(Fuzz, TruncatedWireBlockNeverCrashes) {
  auto b = make_block(3, 5);
  const auto bytes = roccom::WireBlock::from_block(b, "all").serialize();
  Rng rng(44);
  for (int i = 0; i < 200; ++i) {
    const size_t cut = rng.next_below(bytes.size());
    try {
      (void)roccom::WireBlock::deserialize(
          std::vector<unsigned char>(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut)));
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, CorruptedShdfFileFailsStructured) {
  // Random single-byte corruption anywhere in the file must yield either a
  // clean read, a FormatError/IoError, or a checksum failure -- never a
  // crash or silent wrong payload for the corrupted dataset region.
  Rng rng(45);
  for (int trial = 0; trial < 60; ++trial) {
    vfs::MemFileSystem fs;
    {
      shdf::Writer w(fs, "f.shdf");
      w.add("a", std::vector<double>{1, 2, 3});
      w.add("b", std::vector<int32_t>{4, 5});
    }
    // Corrupt one byte.
    {
      auto f = fs.open("f.shdf", vfs::OpenMode::kReadWrite);
      const auto size = f->size();
      const uint64_t pos = rng.next_below(size);
      unsigned char byte;
      f->seek(pos);
      f->read(&byte, 1);
      byte ^= static_cast<unsigned char>(1 + rng.next_below(255));
      f->seek(pos);
      f->write(&byte, 1);
    }
    try {
      shdf::Reader r(fs, "f.shdf");
      for (const auto& name : r.dataset_names())
        (void)r.read_raw(name);
    } catch (const Error&) {
      // structured failure: fine
    }
  }
}

// --- zero-copy wire path equivalence -----------------------------------------
//
// The zero-copy pipeline (serialize_chain -> sendv -> WireBlockView
// pass-through write) must be byte-for-byte indistinguishable from the
// legacy copy path (from_block -> serialize -> deserialize -> write_to),
// across mesh kinds and including zero-length field payloads.

std::vector<mesh::MeshBlock> zero_copy_blocks() {
  std::vector<mesh::MeshBlock> blocks;
  blocks.push_back(make_block(7, 4));  // structured, several fields
  auto u = mesh::MeshBlock::unstructured(8, 5, {0, 1, 2, 3, 1, 2, 3, 4});
  std::iota(u.coords().begin(), u.coords().end(), 0.5);
  auto& uf = u.add_field("temp", mesh::Centering::kElement, 2);
  std::iota(uf.data.begin(), uf.data.end(), -3.0);
  blocks.push_back(std::move(u));
  auto z = make_block(9, 4);
  z.field("pressure").data.clear();  // zero-length field payload
  blocks.push_back(std::move(z));
  return blocks;
}

std::vector<unsigned char> file_bytes(vfs::FileSystem& fs,
                                      const std::string& path) {
  auto f = fs.open(path, vfs::OpenMode::kRead);
  std::vector<unsigned char> v(static_cast<size_t>(f->size()));
  f->read(v.data(), v.size());
  return v;
}

TEST(ZeroCopy, ChainSerializeMatchesLegacySerialize) {
  for (const auto& b : zero_copy_blocks()) {
    std::vector<std::string> attrs = {"all", "mesh"};
    for (const auto& f : b.fields()) attrs.push_back(f.name);
    for (const auto& attr : attrs) {
      const auto legacy =
          roccom::WireBlock::from_block(b, attr).serialize();
      const auto chain = roccom::WireBlock::serialize_chain(b, attr);
      EXPECT_EQ(chain.to_vector(), legacy)
          << "block " << b.id() << " attr " << attr;
      // And the materialising decoder must round-trip the chain's bytes.
      const auto wb = roccom::WireBlock::deserialize(chain.to_vector());
      EXPECT_EQ(wb.pane_id(), b.id());
      EXPECT_EQ(wb.serialize(), legacy)
          << "block " << b.id() << " attr " << attr;
    }
  }
}

TEST(ZeroCopy, PassThroughPipelineIsByteIdenticalToCopyPath) {
  const auto blocks = zero_copy_blocks();

  // Zero-copy pipeline: chain -> sendv -> parse -> pass-through write.
  vfs::MemFileSystem zc_fs;
  comm::World::run(2, [&](comm::Comm& comm) {
    if (comm.rank() == 0) {
      for (const auto& b : blocks)
        comm.sendv(1, 1, roccom::WireBlock::serialize_chain(b, "all"));
    } else {
      shdf::Writer w(zc_fs, "f.shdf");
      for (size_t i = 0; i < blocks.size(); ++i) {
        auto m = comm.recv(0, 1);
        roccom::WireBlockView::parse(m.payload).write_to(w, "win", 0.25);
      }
      w.close();
    }
  });

  // Legacy copy path: materialise a MeshBlock at every hop.
  vfs::MemFileSystem legacy_fs;
  {
    shdf::Writer w(legacy_fs, "f.shdf");
    for (const auto& b : blocks) {
      const auto wire = roccom::WireBlock::from_block(b, "all").serialize();
      roccom::WireBlock::deserialize(wire).write_to(w, "win", 0.25);
    }
    w.close();
  }

  // Direct write of the original blocks (the pre-wire reference).
  vfs::MemFileSystem direct_fs;
  {
    shdf::Writer w(direct_fs, "f.shdf");
    for (const auto& b : blocks)
      roccom::write_block(w, "win", b, "all", 0.25);
    w.close();
  }

  const auto zc = file_bytes(zc_fs, "f.shdf");
  EXPECT_EQ(zc, file_bytes(legacy_fs, "f.shdf"));
  EXPECT_EQ(zc, file_bytes(direct_fs, "f.shdf"));

  // And the result must read back as the original blocks.
  shdf::Reader r(zc_fs, "f.shdf");
  for (const auto& b : blocks) {
    const auto got = roccom::read_block(r, "win", b.id());
    EXPECT_EQ(got.kind(), b.kind());
    EXPECT_EQ(got.coords(), b.coords());
    EXPECT_EQ(got.fields().size(), b.fields().size());
    for (const auto& f : b.fields()) {
      const auto* g = got.find_field(f.name);
      ASSERT_NE(g, nullptr);
      EXPECT_EQ(g->data, f.data) << "block " << b.id() << " " << f.name;
    }
  }
}

// --- message storm ----------------------------------------------------------------

TEST(CommProperty, RandomMessageStormDeliversExactlyOnce) {
  constexpr int kRanks = 6;
  constexpr int kPerRank = 40;
  std::array<std::atomic<int>, kRanks> received{};
  comm::World::run(kRanks, [&](comm::Comm& comm) {
    Rng rng(1000 + static_cast<uint64_t>(comm.rank()));
    // Everyone sends kPerRank messages to random peers, then receives
    // exactly what it was sent.  A final allreduce of counts closes the
    // books.
    std::vector<int> sent_to(kRanks, 0);
    for (int i = 0; i < kPerRank; ++i) {
      const int dest = static_cast<int>(rng.next_below(kRanks));
      const uint64_t value = rng.next_u64();
      comm.send(dest, 17, &value, sizeof(value));
      ++sent_to[static_cast<size_t>(dest)];
    }
    // Tell each peer how many to expect from us.
    for (int r = 0; r < kRanks; ++r)
      comm.send(r, 18, &sent_to[static_cast<size_t>(r)], sizeof(int));
    int expect = 0;
    for (int r = 0; r < kRanks; ++r) {
      auto m = comm.recv(r, 18);
      int n;
      std::memcpy(&n, m.payload.data(), sizeof(n));
      expect += n;
    }
    for (int i = 0; i < expect; ++i) {
      auto m = comm.recv(comm::kAnySource, 17);
      EXPECT_EQ(m.payload.size(), sizeof(uint64_t));
      ++received[static_cast<size_t>(comm.rank())];
    }
    comm.barrier();
    // No stragglers.
    comm::Status st;
    EXPECT_FALSE(comm.iprobe(comm::kAnySource, 17, &st));
  });
  int total = 0;
  for (const auto& r : received) total += r.load();
  EXPECT_EQ(total, kRanks * kPerRank);
}

// --- thread-vs-simulator equivalence ------------------------------------------------

/// The same Rocpanda workload must produce byte-identical block state on
/// the thread-backed runtime and on the simulator (the simulator runs the
/// real code, so only timing may differ).
TEST(Substrates, ThreadAndSimProduceIdenticalFiles) {
  constexpr int kClients = 3, kServers = 1;

  auto workload = [](comm::Comm& world, comm::Env& env, vfs::FileSystem& fs)
      -> uint64_t {
    const rocpanda::Layout layout(world.size(), kServers);
    auto local = world.split(layout.is_server(world.rank()) ? 1 : 0,
                             world.rank());
    if (layout.is_server(world.rank())) {
      (void)rocpanda::run_server(world, *local, env, fs, layout,
                                 rocpanda::ServerOptions{});
      return 0;
    }
    rocpanda::RocpandaClient client(world, env, layout);
    roccom::Roccom com;
    auto& w = com.create_window("f");
    auto b = make_block(local->rank(), 5);
    w.register_pane(b.id(), &b);
    client.write_attribute(com, roccom::IoRequest{"f", "all", "eq", 0.5});
    client.sync();
    const auto back = client.fetch_blocks("eq", {local->rank()});
    client.shutdown();
    return back[0].state_checksum();
  };

  // Thread substrate.
  std::vector<uint64_t> thread_sums(kClients + kServers, 0);
  vfs::MemFileSystem thread_fs;
  comm::World::run(kClients + kServers, [&](comm::Comm& world) {
    comm::RealEnv env;
    thread_sums[static_cast<size_t>(world.rank())] =
        workload(world, env, thread_fs);
  });

  // Simulator substrate.
  std::vector<uint64_t> sim_sums(kClients + kServers, 0);
  sim::Platform p;
  sim::Simulation sim(p);
  auto world = std::make_shared<sim::SimWorld>(sim, kClients + kServers);
  auto sim_fs = std::make_shared<sim::SimFileSystem>(sim);
  for (int r = 0; r < kClients + kServers; ++r) {
    sim.add_process([&, world, sim_fs](sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());
      sim_sums[static_cast<size_t>(comm->rank())] =
          workload(*comm, env, *sim_fs);
    });
  }
  sim.run();

  EXPECT_EQ(thread_sums, sim_sums);
  // File sets match too.
  EXPECT_EQ(thread_fs.list("eq").size(), sim_fs->list("eq").size());
}

}  // namespace
}  // namespace roc
