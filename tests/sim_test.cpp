/// \file sim_test.cpp
/// \brief Tests for the discrete-event simulator: scheduling, virtual
/// time, determinism, the node/network/file-system cost models, and the
/// real I/O libraries running unmodified on the simulated substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>

#include "mesh/generators.h"
#include "rochdf/rochdf.h"
#include "rocpanda/client.h"
#include "rocpanda/server.h"
#include "shdf/reader.h"
#include "sim/platform.h"
#include "sim/sim_comm.h"
#include "sim/sim_env.h"
#include "sim/sim_fs.h"
#include "sim/simulation.h"

namespace roc::sim {
namespace {

Platform quiet_platform(int cpus = 2) {
  Platform p;  // generic defaults, no noise, no interference
  p.node.cpus = cpus;
  return p;
}

TEST(Simulation, VirtualTimeAdvancesThroughEventsOnly) {
  Simulation sim(quiet_platform());
  double seen = -1;
  sim.add_process([&](ProcContext& ctx) {
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
    ctx.wait_until(1.5, false);
    EXPECT_DOUBLE_EQ(ctx.now(), 1.5);
    ctx.wait_until(1.5, false);  // no-op in time
    EXPECT_DOUBLE_EQ(ctx.now(), 1.5);
    seen = ctx.now();
  });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 1.5);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(Simulation, EventsRunInTimeOrderWithFifoTieBreak) {
  Simulation sim(quiet_platform());
  std::vector<int> order;
  sim.add_process([&](ProcContext& ctx) {
    ctx.sim().schedule(2.0, [&] { order.push_back(3); });
    ctx.sim().schedule(1.0, [&] { order.push_back(1); });
    ctx.sim().schedule(1.0, [&] { order.push_back(2); });  // same time: FIFO
    ctx.wait_until(3.0, false);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, ComputeWithoutNoiseIsExact) {
  Simulation sim(quiet_platform());
  sim.add_process([&](ProcContext& ctx) {
    ctx.compute(2.25);
    EXPECT_DOUBLE_EQ(ctx.now(), 2.25);
  });
  sim.run();
}

TEST(Simulation, ProcessesArePackedOntoNodes) {
  Simulation sim(quiet_platform(/*cpus=*/4));
  for (int i = 0; i < 10; ++i) sim.add_process([](ProcContext&) {});
  EXPECT_EQ(sim.node_of_rank(0), 0);
  EXPECT_EQ(sim.node_of_rank(3), 0);
  EXPECT_EQ(sim.node_of_rank(4), 1);
  EXPECT_EQ(sim.node_of_rank(9), 2);
  sim.run();
}

TEST(Simulation, ExceptionInProcessPropagates) {
  Simulation sim(quiet_platform());
  sim.add_process([](ProcContext&) { throw IoError("sim process failed"); });
  EXPECT_THROW(sim.run(), IoError);
}

TEST(Simulation, DeadlockIsDetected) {
  Simulation sim(quiet_platform());
  auto world = std::make_shared<SimWorld>(sim, 1);
  sim.add_process([world](ProcContext&) {
    auto comm = world->attach();
    (void)comm->recv(0, 5);  // nobody will ever send
  });
  EXPECT_THROW(sim.run(), CommError);
}

TEST(Simulation, OsNoiseInflatesOnlyFullyBusyNodes) {
  // Two processes on one 2-CPU node: when both compute, no idle CPU
  // remains and noise inflates; a single computing process is exact.
  Platform p = quiet_platform(2);
  p.node.os_noise_fraction = 0.10;
  {
    Simulation sim(p);
    double t0 = -1;
    sim.add_process([&](ProcContext& ctx) {
      ctx.compute(10.0);
      t0 = ctx.now();
    });
    sim.run();
    EXPECT_DOUBLE_EQ(t0, 10.0);  // alone on the node: the other CPU absorbs
  }
  {
    Simulation sim(p);
    double t0 = -1, t1 = -1;
    sim.add_process([&](ProcContext& ctx) {
      ctx.compute(10.0);
      t0 = ctx.now();
    });
    sim.add_process([&](ProcContext& ctx) {
      ctx.compute(10.0);
      t1 = ctx.now();
    });
    sim.run();
    // At least one of the two overlapping computations saw no idle CPU.
    EXPECT_GT(std::max(t0, t1), 10.0);
    EXPECT_LT(std::max(t0, t1), 10.0 * 1.8);
  }
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Platform p = quiet_platform(2);
    p.node.os_noise_fraction = 0.05;
    Simulation sim(p);
    auto world = std::make_shared<SimWorld>(sim, 4);
    for (int r = 0; r < 4; ++r) {
      sim.add_process([world](ProcContext& ctx) {
        auto comm = world->attach();
        for (int step = 0; step < 5; ++step) {
          ctx.compute(0.1 * (comm->rank() + 1));
          comm->barrier();
        }
      });
    }
    sim.run();
    return sim.now();
  };
  const double a = run_once();
  const double b = run_once();
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.0);
}

// --- SimComm cost model (comm_test.cpp runs the Comm contract on SimComm) ---

TEST(SimComm, TransfersTakeTimeAndSerializeOnSharedLinks) {
  Platform p = quiet_platform(1);  // every rank on its own node
  p.net.inter_latency = 1e-3;
  p.net.inter_bandwidth = 1e6;  // 1 MB/s
  Simulation sim(p);
  auto world = std::make_shared<SimWorld>(sim, 3);
  std::vector<double> recv_time(3, -1);
  for (int r = 0; r < 3; ++r) {
    sim.add_process([world, &recv_time](ProcContext& ctx) {
      auto comm = world->attach();
      std::vector<unsigned char> mb(1000000);  // 1 MB -> 1 s on the wire
      if (comm->rank() != 0) {
        comm->send(0, 1, mb.data(), mb.size());
      } else {
        (void)comm->recv(comm::kAnySource, 1);
        (void)comm->recv(comm::kAnySource, 1);
        recv_time[0] = ctx.now();
      }
    });
  }
  sim.run();
  // Two 1s transfers must serialize at rank 0's NIC: ~2s total.
  EXPECT_GE(recv_time[0], 2.0);
  EXPECT_LT(recv_time[0], 2.2);
}

TEST(SimComm, IntraNodeCheaperThanInterNode) {
  Platform p = quiet_platform(2);
  p.net.intra_bandwidth = 100e6;
  p.net.inter_bandwidth = 10e6;
  auto elapsed_for = [&](int peer) {
    Simulation sim(p);
    auto world = std::make_shared<SimWorld>(sim, 4);
    // ranks 0,1 on node 0; 2,3 on node 1
    double done = -1;
    for (int r = 0; r < 4; ++r) {
      sim.add_process([world, peer, &done](ProcContext& ctx) {
        auto comm = world->attach();
        std::vector<unsigned char> mb(10000000);
        if (comm->rank() == 0) {
          comm->send(peer, 1, mb.data(), mb.size());
          done = ctx.now();
        } else if (comm->rank() == peer) {
          (void)comm->recv(0, 1);
        }
      });
    }
    sim.run();
    return done;
  };
  EXPECT_LT(elapsed_for(1), elapsed_for(2) / 2);
}

// --- SimEnv -------------------------------------------------------------------

TEST(SimEnv, WorkerAndGateCooperate) {
  Simulation sim(quiet_platform());
  bool worker_ran = false;
  sim.add_process([&](ProcContext& ctx) {
    SimEnv env(ctx.sim());
    auto gate = env.make_gate();
    bool flag = false;
    auto worker = env.spawn_worker([&] {
      SimEnv wenv(sim);
      wenv.compute(0.5);
      comm::GateLock lock(*gate);
      flag = true;
      worker_ran = true;
      gate->notify_all();
    });
    gate->lock();
    while (!flag) gate->wait();
    gate->unlock();
    EXPECT_GE(ctx.now(), 0.5);
    worker->join();
  });
  sim.run();
  EXPECT_TRUE(worker_ran);
}

TEST(SimEnv, ChargeLocalCopyUsesMemcpyBandwidth) {
  Platform p = quiet_platform();
  p.memcpy_bandwidth = 100e6;
  Simulation sim(p);
  sim.add_process([&](ProcContext& ctx) {
    SimEnv env(ctx.sim());
    env.charge_local_copy(50'000'000);  // 0.5 s at 100 MB/s
    EXPECT_NEAR(ctx.now(), 0.5, 1e-9);
  });
  sim.run();
}

// --- SimFileSystem --------------------------------------------------------------

TEST(SimFs, WritesChargeOverheadPlusBandwidth) {
  Platform p = quiet_platform();
  p.fs.write_bandwidth = 10e6;
  p.fs.write_op_overhead = 1e-3;
  p.fs.open_cost = 0.5;
  p.fs.close_cost = 0;
  p.fs.cpu_fraction = 0;
  Simulation sim(p);
  sim.add_process([&](ProcContext& ctx) {
    SimFileSystem fs(ctx.sim());
    auto f = fs.open("x", vfs::OpenMode::kTruncate);
    EXPECT_NEAR(ctx.now(), 0.5, 1e-9);  // open cost
    std::vector<unsigned char> mb(10'000'000);
    f->write(mb.data(), mb.size());  // 1 s + 1 ms
    EXPECT_NEAR(ctx.now(), 1.501, 1e-6);
  });
  sim.run();
  // Content is really stored.
}

TEST(SimFs, DataSurvivesAndIsReadable) {
  Simulation sim(quiet_platform());
  sim.add_process([&](ProcContext& ctx) {
    SimFileSystem fs(ctx.sim());
    {
      shdf::Writer w(fs, "t.shdf");
      w.add("x", std::vector<double>{1, 2, 3});
    }
    shdf::Reader r(fs, "t.shdf");
    EXPECT_EQ(r.read<double>("x"), (std::vector<double>{1, 2, 3}));
    EXPECT_GT(ctx.now(), 0.0);  // the I/O cost virtual time
  });
  sim.run();
}

TEST(SimFs, WriteChannelsSerializeConcurrentWriters) {
  Platform p = quiet_platform(1);
  p.fs.write_channels = 1;
  p.fs.write_bandwidth = 1e6;
  p.fs.open_cost = 0;
  p.fs.close_cost = 0;
  p.fs.write_op_overhead = 0;
  p.fs.cpu_fraction = 0;
  Simulation sim(p);
  auto fs = std::make_shared<SimFileSystem>(sim);
  std::vector<double> done(3, 0);
  for (int r = 0; r < 3; ++r) {
    sim.add_process([fs, r, &done](ProcContext& ctx) {
      auto f = fs->open("f" + std::to_string(r), vfs::OpenMode::kTruncate);
      std::vector<unsigned char> mb(1'000'000);  // 1 s each
      f->write(mb.data(), mb.size());
      done[static_cast<size_t>(r)] = ctx.now();
    });
  }
  sim.run();
  EXPECT_NEAR(*std::max_element(done.begin(), done.end()), 3.0, 0.01);
}

TEST(SimFs, MoreChannelsGiveParallelism) {
  Platform p = quiet_platform(1);
  p.fs.write_channels = 3;
  p.fs.write_bandwidth = 1e6;
  p.fs.open_cost = 0;
  p.fs.close_cost = 0;
  p.fs.write_op_overhead = 0;
  p.fs.cpu_fraction = 0;
  Simulation sim(p);
  auto fs = std::make_shared<SimFileSystem>(sim);
  std::vector<double> done(3, 0);
  for (int r = 0; r < 3; ++r) {
    sim.add_process([fs, r, &done](ProcContext& ctx) {
      auto f = fs->open("f" + std::to_string(r), vfs::OpenMode::kTruncate);
      std::vector<unsigned char> mb(1'000'000);
      f->write(mb.data(), mb.size());
      done[static_cast<size_t>(r)] = ctx.now();
    });
  }
  sim.run();
  EXPECT_NEAR(*std::max_element(done.begin(), done.end()), 1.0, 0.01);
}

TEST(SimFs, ContentionMultiplierIsUnimodal) {
  Platform p = quiet_platform();
  p.fs.contention_a = 2.0;
  p.fs.contention_c0 = 16.0;
  // mult(c) = 1 + 2 c e^{-c/16}: rises to c=16 then falls.
  auto mult = [&](double c) { return 1 + 2 * c * std::exp(-c / 16.0); };
  EXPECT_LT(mult(4), mult(16));
  EXPECT_GT(mult(16), mult(64));
  EXPECT_GT(mult(64), 1.0);
}

// --- the real I/O stacks on the simulated substrate ---------------------------

TEST(SimIntegration, TRochdfRunsOnVirtualTime) {
  Platform p = quiet_platform(2);
  Simulation sim(p);
  auto fs = std::make_shared<SimFileSystem>(sim);
  auto world = std::make_shared<SimWorld>(sim, 2);
  std::vector<double> visible(2, 0);
  for (int r = 0; r < 2; ++r) {
    sim.add_process([world, fs, &visible](ProcContext& ctx) {
      auto comm = world->attach();
      SimEnv env(ctx.sim());
      roccom::Roccom com;
      auto& w = com.create_window("fluid");
      auto b = mesh::MeshBlock::structured(comm->rank(), {6, 6, 6});
      mesh::add_fluid_schema(b);
      w.register_pane(b.id(), &b);

      rochdf::Options o;
      o.threaded = true;
      rochdf::Rochdf io(*comm, env, *fs, o);
      const double t0 = ctx.now();
      io.write_attribute(com,
                         roccom::IoRequest{"fluid", "all", "vsnap", 0.0});
      visible[static_cast<size_t>(comm->rank())] = ctx.now() - t0;
      ctx.compute(5.0);  // overlap window
      io.sync();
      // The background write overlapped with compute: total stays ~5s.
      EXPECT_LT(ctx.now() - t0, 6.0);
    });
  }
  sim.run();
  // Visible cost is only the local buffer copy: far below the write cost.
  EXPECT_GT(visible[0], 0.0);
  EXPECT_LT(visible[0], 0.5);
}

TEST(SimIntegration, RocpandaDeploymentWritesAndRestartsUnderSim) {
  Platform p = quiet_platform(3);
  Simulation sim(p);
  auto fs = std::make_shared<SimFileSystem>(sim);
  const int nclients = 4, nservers = 2;
  auto world = std::make_shared<SimWorld>(sim, nclients + nservers);
  std::vector<double> visible(static_cast<size_t>(nclients + nservers), -1);

  for (int r = 0; r < nclients + nservers; ++r) {
    sim.add_process([world, fs, &visible](ProcContext& ctx) {
      auto comm = world->attach();
      SimEnv env(ctx.sim());
      const rocpanda::Layout layout(comm->size(), 2);
      const bool server = layout.is_server(comm->rank());
      auto local = comm->split(server ? 1 : 0, comm->rank());
      if (server) {
        (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                   rocpanda::ServerOptions{});
        return;
      }
      roccom::Roccom com;
      auto& w = com.create_window("fluid");
      auto b = mesh::MeshBlock::structured(local->rank(), {6, 6, 6});
      mesh::add_fluid_schema(b);
      auto& pr = b.field("pressure");
      std::iota(pr.data.begin(), pr.data.end(),
                static_cast<double>(local->rank()) * 100);
      w.register_pane(b.id(), &b);
      const auto crc = b.state_checksum();

      rocpanda::RocpandaClient panda(*comm, env, layout);
      const double t0 = ctx.now();
      panda.write_attribute(com,
                            roccom::IoRequest{"fluid", "all", "sim_rt", 0.0});
      visible[static_cast<size_t>(comm->rank())] = ctx.now() - t0;
      ctx.compute(2.0);
      panda.sync();

      const auto back = panda.fetch_blocks("sim_rt", {local->rank()});
      EXPECT_EQ(back[0].state_checksum(), crc);
      panda.shutdown();
    });
  }
  sim.run();
  EXPECT_EQ(fs->list("sim_rt_s").size(), 2u);
  for (size_t r = 0; r < visible.size(); ++r) {
    const rocpanda::Layout layout(nclients + nservers, 2);
    if (layout.is_server(static_cast<int>(r))) continue;
    EXPECT_GT(visible[r], 0.0) << "client " << r;
  }
}

TEST(SimIntegration, ActiveBufferingHidesDiskTimeFromClients) {
  // Same deployment, slow disk: client-visible time must be much smaller
  // than the actual disk time; sync at the end pays the remainder.
  Platform p = quiet_platform(3);
  p.fs.write_bandwidth = 2e6;  // very slow disk
  p.net.intra_bandwidth = 500e6;
  p.net.inter_bandwidth = 500e6;
  Simulation sim(p);
  auto fs = std::make_shared<SimFileSystem>(sim);
  auto world = std::make_shared<SimWorld>(sim, 3);
  double visible = -1, total = -1;
  for (int r = 0; r < 3; ++r) {
    sim.add_process([world, fs, &visible, &total](ProcContext& ctx) {
      auto comm = world->attach();
      SimEnv env(ctx.sim());
      const rocpanda::Layout layout(3, 1);
      auto local = comm->split(layout.is_server(comm->rank()) ? 1 : 0,
                               comm->rank());
      if (layout.is_server(comm->rank())) {
        (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                   rocpanda::ServerOptions{});
        return;
      }
      roccom::Roccom com;
      auto& w = com.create_window("fluid");
      auto b = mesh::MeshBlock::structured(local->rank(), {12, 12, 12});
      mesh::add_fluid_schema(b);
      w.register_pane(b.id(), &b);
      rocpanda::RocpandaClient panda(*comm, env, layout);

      const double t0 = ctx.now();
      panda.write_attribute(com,
                            roccom::IoRequest{"fluid", "all", "hide", 0.0});
      visible = ctx.now() - t0;
      panda.sync();
      total = ctx.now() - t0;
      panda.shutdown();
    });
  }
  sim.run();
  EXPECT_GT(total, visible * 3)
      << "the disk time should be hidden behind the buffering ack";
}

/// Writes snapshot "plain" with Rochdf, "threaded" with T-Rochdf and
/// "panda" with Rocpanda, each in two windows (so later windows append), on
/// the file system `on_sim` picks: a SimFileSystem over `store`, or `store`
/// itself.  Returns each written file's directory kind, read from `store`.
std::map<std::string, shdf::DirectoryKind> snapshot_directory_kinds(
    bool on_sim) {
  vfs::MemFileSystem store;
  Simulation sim(quiet_platform(3));
  std::shared_ptr<vfs::FileSystem> fs;
  if (on_sim)
    fs = std::make_shared<SimFileSystem>(sim, store);
  else
    fs = std::make_shared<vfs::MemFileSystem>(store);
  auto world = std::make_shared<SimWorld>(sim, 3);
  for (int r = 0; r < 3; ++r) {
    sim.add_process([world, fs](ProcContext& ctx) {
      auto comm = world->attach();
      SimEnv env(ctx.sim());
      const rocpanda::Layout layout(comm->size(), 1);
      const bool server = layout.is_server(comm->rank());
      auto local = comm->split(server ? 1 : 0, comm->rank());
      if (server) {
        (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                   rocpanda::ServerOptions{});
        return;
      }
      roccom::Roccom com;
      auto fluid = mesh::MeshBlock::structured(local->rank(), {4, 4, 4});
      mesh::add_fluid_schema(fluid);
      com.create_window("fluid").register_pane(fluid.id(), &fluid);
      auto solid = mesh::MeshBlock::structured(10 + local->rank(), {4, 4, 4});
      com.create_window("solid").register_pane(solid.id(), &solid);
      const auto write_both = [&](roccom::IoService& io,
                                  const std::string& base) {
        for (const char* window : {"fluid", "solid"})
          io.write_attribute(com, roccom::IoRequest{window, "all", base, 0.0});
        io.sync();
      };
      for (const bool threaded : {false, true}) {
        rochdf::Options o;
        o.threaded = threaded;
        rochdf::Rochdf io(*local, env, *fs, o);
        write_both(io, threaded ? "threaded" : "plain");
      }
      rocpanda::RocpandaClient panda(*comm, env, layout);
      write_both(panda, "panda");
      panda.shutdown();
    });
  }
  sim.run();
  std::map<std::string, shdf::DirectoryKind> kinds;
  for (const auto& path : store.list("")) {
    const shdf::Reader r(store, path);
    EXPECT_FALSE(r.dataset_names_with_prefix("solid/").empty()) << path;
    kinds[path] = r.directory_kind();
  }
  return kinds;
}

TEST(SimIntegration, SubstratePicksTheSnapshotDirectoryKind) {
  // roccom::SnapshotFiles::open is the one place the kind is chosen: every
  // service's files are kIndexed on a real substrate and kLinear (the
  // paper's HDF4 bookkeeping) on the simulator.
  for (const bool on_sim : {false, true}) {
    SCOPED_TRACE(on_sim ? "SimFileSystem" : "MemFileSystem");
    const auto kinds = snapshot_directory_kinds(on_sim);
    std::vector<std::string> paths;
    for (const auto& k : kinds) paths.push_back(k.first);
    EXPECT_EQ(paths, (std::vector<std::string>{
                         "panda_s0000.shdf", "plain_p0000.shdf",
                         "plain_p0001.shdf", "threaded_p0000.shdf",
                         "threaded_p0001.shdf"}));
    for (const auto& [path, kind] : kinds)
      EXPECT_EQ(kind, on_sim ? shdf::DirectoryKind::kLinear
                             : shdf::DirectoryKind::kIndexed)
          << path;
  }
}

}  // namespace
}  // namespace roc::sim
