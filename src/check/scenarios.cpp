#include "check/scenarios.h"

#include <memory>
#include <numeric>

#include "mesh/generators.h"
#include "rochdf/rochdf.h"
#include "rocpanda/client.h"
#include "rocpanda/server.h"
#include "sim/platform.h"
#include "sim/sim_comm.h"
#include "sim/sim_env.h"
#include "sim/sim_fs.h"
#include "sim/simulation.h"
#include "util/check_hooks.h"
#include "util/error.h"

namespace roc::check {

namespace {

sim::Platform quiet_platform(int cpus) {
  sim::Platform p;  // generic defaults: no noise, no interference
  p.node.cpus = cpus;
  return p;
}

mesh::MeshBlock make_block(int id, int n) {
  auto b = mesh::MeshBlock::structured(id, {n, n, n});
  mesh::add_fluid_schema(b);
  auto& f = b.field("pressure");
  std::iota(f.data.begin(), f.data.end(), static_cast<double>(id * 1000));
  return b;
}

/// Builds the sim, runs `populate` to add processes, and drives the run
/// with the session installed.  Install/uninstall bracket the Simulation's
/// LIFETIME (not just run()) so lock_destroy events reach the session.
template <typename Populate>
ScenarioResult drive(Session& session, Explorer& explorer, int cpus,
                     sim::Platform platform, Populate populate) {
  ScenarioResult result;
  session.set_explorer(&explorer);
  session.install();
  {
    platform.node.cpus = cpus;
    sim::Simulation sim(platform);
    sim.set_scheduler(&explorer);
    explorer.attach(&sim);
    populate(sim);
    try {
      sim.run();
    } catch (const std::exception& e) {
      result.error = e.what();
    }
    explorer.attach(nullptr);
  }
  session.uninstall();
  session.set_explorer(nullptr);
  return result;
}

ScenarioResult run_trochdf(Session& session, Explorer& explorer) {
  return drive(
      session, explorer, /*cpus=*/2, quiet_platform(2),
      [](sim::Simulation& sim) {
        auto world = std::make_shared<sim::SimWorld>(sim, 2);
        auto fs = std::make_shared<sim::SimFileSystem>(sim);
        for (int r = 0; r < 2; ++r) {
          sim.add_process([world, fs](sim::ProcContext& ctx) {
            auto comm = world->attach();
            sim::SimEnv env(ctx.sim());
            roccom::Roccom com;
            auto& w = com.create_window("fluid");
            auto b = make_block(comm->rank(), 5);
            w.register_pane(b.id(), &b);

            rochdf::Options o;
            o.threaded = true;
            rochdf::Rochdf io(*comm, env, *fs, o);
            // Back-to-back snapshots: the second write must block on the
            // first snapshot's handoff, the exact protocol under test.
            io.write_attribute(com,
                               roccom::IoRequest{"fluid", "all", "s0", 0.0});
            io.write_attribute(com,
                               roccom::IoRequest{"fluid", "all", "s1", 1.0});
            ctx.compute(0.5);
            io.sync();
            const auto st = io.stats();
            require(st.blocks_written == 2, "trochdf: expected 2 blocks");
            require(st.files_written == 2, "trochdf: expected 2 files");
          });
        }
      });
}

ScenarioResult run_active_buffering(Session& session, Explorer& explorer) {
  return drive(
      session, explorer, /*cpus=*/3, quiet_platform(3),
      [](sim::Simulation& sim) {
        auto world = std::make_shared<sim::SimWorld>(sim, 3);
        auto fs = std::make_shared<sim::SimFileSystem>(sim);
        for (int r = 0; r < 3; ++r) {
          sim.add_process([world, fs](sim::ProcContext& ctx) {
            auto comm = world->attach();
            sim::SimEnv env(ctx.sim());
            const rocpanda::Layout layout(comm->size(), 1);
            auto local = comm->split(
                layout.is_server(comm->rank()) ? 1 : 0, comm->rank());
            if (layout.is_server(comm->rank())) {
              rocpanda::ServerOptions opts;
              // Small enough that snapshots overflow to disk mid-stream:
              // the active-buffering spill path.
              opts.buffer_capacity = 20000;
              (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                         opts);
              return;
            }
            rocpanda::RocpandaClient client(*comm, env, layout);
            roccom::Roccom com;
            auto& w = com.create_window("f");
            auto b = make_block(local->rank(), 6);
            w.register_pane(b.id(), &b);
            for (int snap = 0; snap < 2; ++snap)
              client.write_attribute(
                  com, roccom::IoRequest{
                           "f", "all", "ab" + std::to_string(snap), 0.0});
            client.sync();
            const auto back = client.fetch_blocks("ab1", {local->rank()});
            require(back.size() == 1 &&
                        back[0].state_checksum() == b.state_checksum(),
                    "active_buffering: fetched block mismatch");
            client.shutdown();
          });
        }
      });
}

ScenarioResult run_fig3a(Session& session, Explorer& explorer) {
  constexpr int kClients = 4, kServers = 2;
  return drive(
      session, explorer, /*cpus=*/3, quiet_platform(3),
      [](sim::Simulation& sim) {
        auto world =
            std::make_shared<sim::SimWorld>(sim, kClients + kServers);
        auto fs = std::make_shared<sim::SimFileSystem>(sim);
        for (int r = 0; r < kClients + kServers; ++r) {
          sim.add_process([world, fs](sim::ProcContext& ctx) {
            auto comm = world->attach();
            sim::SimEnv env(ctx.sim());
            const rocpanda::Layout layout(comm->size(), kServers);
            auto local = comm->split(
                layout.is_server(comm->rank()) ? 1 : 0, comm->rank());
            if (layout.is_server(comm->rank())) {
              (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                         rocpanda::ServerOptions{});
              return;
            }
            rocpanda::RocpandaClient client(*comm, env, layout);
            roccom::Roccom com;
            auto& w = com.create_window("f");
            auto b = make_block(local->rank(), 5);
            w.register_pane(b.id(), &b);
            client.write_attribute(com,
                                   roccom::IoRequest{"f", "all", "t0", 0.0});
            ctx.compute(1.0);  // the Fig 3(a) overlap window
            client.write_attribute(com,
                                   roccom::IoRequest{"f", "all", "t1", 1.0});
            client.sync();
            const auto back = client.fetch_blocks("t1", {local->rank()});
            require(back.size() == 1 &&
                        back[0].state_checksum() == b.state_checksum(),
                    "fig3a: fetched block mismatch");
            client.shutdown();
          });
        }
      });
}

ScenarioResult run_racy(Session& session, Explorer& explorer) {
  // Instantaneous network: the delivery callback lands at the SAME virtual
  // time as the receiver's wake-up, so the schedule explorer decides which
  // runs first.  When the receiver wins the tie, it touches `flag` before
  // the message (the only happens-before carrier) has arrived: a race.
  sim::Platform p = quiet_platform(2);
  p.net.intra_latency = 0;
  p.net.inter_latency = 0;
  p.net.intra_bandwidth = 1e18;
  p.net.inter_bandwidth = 1e18;

  auto flag = std::make_shared<int>(0);
  return drive(
      session, explorer, /*cpus=*/2, p,
      [flag](sim::Simulation& sim) {
        auto world = std::make_shared<sim::SimWorld>(sim, 2);
        sim.add_process([world, flag](sim::ProcContext&) {
          auto comm = world->attach();
          ROC_CHECK_SHARED_WRITE(flag.get(), "racy.flag");
          *flag = 1;
          const int one = 1;
          comm->send(1, 7, &one, sizeof(one));
        });
        sim.add_process([world, flag](sim::ProcContext& ctx) {
          auto comm = world->attach();
          ctx.wait_until(0.0, false);  // re-enter the tie at t=0
          if (!comm->iprobe(0, 7, nullptr)) {
            // Nothing delivered yet: this write is not ordered against
            // the sender's.  The bug under test.
            ROC_CHECK_SHARED_WRITE(flag.get(), "racy.flag");
            *flag = 2;
          }
          (void)comm->recv(0, 7);  // drain; establishes HB for the write
          ROC_CHECK_SHARED_WRITE(flag.get(), "racy.flag");
          *flag = 3;
        });
      });
}

}  // namespace

std::vector<std::string> scenario_names() {
  return {"trochdf", "active_buffering", "fig3a", "racy"};
}

ScenarioResult run_scenario(const std::string& name, Session& session,
                            Explorer& explorer) {
  if (name == "trochdf") return run_trochdf(session, explorer);
  if (name == "active_buffering")
    return run_active_buffering(session, explorer);
  if (name == "fig3a") return run_fig3a(session, explorer);
  if (name == "racy") return run_racy(session, explorer);
  throw InvalidArgument("unknown checker scenario: " + name);
}

}  // namespace roc::check
