/// \file bench_ablation_hierarchy.cpp
/// \brief Ablation A5: the client-side half of the active-buffering
/// hierarchy ([13], §6.1 — the paper deploys only server-side buffering on
/// GENx "because the servers have enough idle memory"; the full scheme
/// also buffers at the clients).
///
/// Table-1 workload at 16 clients + 2 servers on the simulated Turing:
/// server-side buffering only (the paper's configuration) vs the full
/// hierarchy (client buffer + background shipping worker).  With the
/// hierarchy, the client-visible cost drops to the local marshalling copy,
/// approaching T-Rochdf, while the file count stays at one per server.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "genx/orchestrator.h"
#include "rocpanda/client.h"
#include "rocpanda/server.h"
#include "sim/platform.h"
#include "sim/sim_comm.h"
#include "sim/sim_env.h"
#include "sim/sim_fs.h"
#include "sim/simulation.h"

#include "bench_json.h"

namespace {

using namespace roc;

constexpr int kClients = 16;
constexpr int kServers = 2;
constexpr double kSnapshotBytes = 64.0 * 1024 * 1024;

genx::GenxConfig workload() {
  genx::GenxConfig cfg;
  cfg.mesh_spec.fluid_blocks = 192;
  cfg.mesh_spec.solid_blocks = 128;
  cfg.mesh_spec.base_block_nodes = 8;
  cfg.steps = 100;
  cfg.snapshot_interval = 50;
  cfg.compute_seconds_per_step = 846.64 * 16 / (200.0 * kClients);
  cfg.run_name = "hier";
  return cfg;
}

double workload_real_bytes() {
  auto rocket = mesh::make_lab_scale_rocket(workload().mesh_spec);
  return static_cast<double>(rocket.total_payload_bytes()) +
         static_cast<double>(rocket.solid.size()) * 2500.0;
}

struct Result {
  double visible = 0;
  double total = 0;
  size_t files = 0;
};

Result run(const rocpanda::ClientOptions& client_opts) {
  const int world_size = kClients + kServers;
  sim::Platform p = sim::turing_platform();
  p.byte_scale = kSnapshotBytes / workload_real_bytes();
  sim::Simulation sim(p);
  auto world = std::make_shared<sim::SimWorld>(sim, world_size);
  auto fs = std::make_shared<sim::SimFileSystem>(sim);

  std::vector<double> visible(static_cast<size_t>(world_size), 0);
  std::vector<double> total(static_cast<size_t>(world_size), 0);

  for (int r = 0; r < world_size; ++r) {
    sim.add_process([&, world, fs, client_opts](sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());
      const rocpanda::Layout layout(comm->size(), kServers);
      auto local = comm->split(layout.is_server(comm->rank()) ? 1 : 0,
                               comm->rank());
      if (layout.is_server(comm->rank())) {
        (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                   rocpanda::ServerOptions{});
        return;
      }
      rocpanda::RocpandaClient client(*comm, env, layout, client_opts);
      genx::GenxRun grun(*local, env, client, workload());
      grun.init_fresh();
      const double t0 = env.now();
      grun.run();
      visible[static_cast<size_t>(comm->rank())] =
          grun.stats().visible_output_seconds;
      total[static_cast<size_t>(comm->rank())] = env.now() - t0;
      client.shutdown();
    });
  }
  sim.run();
  Result res;
  res.visible = *std::max_element(visible.begin(), visible.end());
  res.total = *std::max_element(total.begin(), total.end());
  res.files = fs->list("hier_snap_").size();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json(&argc, argv);
  bench::reject_other_args(argc, argv);
  std::printf("Ablation A5: client-side buffering in the active-buffering "
              "hierarchy (Table-1 workload, %d clients + %d servers, "
              "simulated Turing).\n\n", kClients, kServers);
  std::printf("%-38s %14s %14s %8s\n", "configuration", "visible I/O s",
              "total run s", "files");

  std::fprintf(stderr, "  running: server-side only...\n");
  rocpanda::ClientOptions server_only;
  const Result a = run(server_only);
  std::printf("%-38s %14.2f %14.2f %8zu\n",
              "server-side buffering (paper)", a.visible, a.total, a.files);

  std::fprintf(stderr, "  running: full hierarchy...\n");
  rocpanda::ClientOptions hierarchy;
  hierarchy.client_buffering = true;
  const Result b = run(hierarchy);
  std::printf("%-38s %14.2f %14.2f %8zu\n",
              "client + server hierarchy", b.visible, b.total, b.files);

  json.record("ablation_hierarchy",
              {bench::param("config", "server_only")},
              "visible_io_time", a.visible, "s");
  json.record("ablation_hierarchy",
              {bench::param("config", "hierarchy")},
              "visible_io_time", b.visible, "s");

  std::printf("\nexpected: the hierarchy cuts the visible cost to the local "
              "marshalling copy (%.1fx lower here) at the price of client "
              "memory; the file count stays at one per server either "
              "way.\n", a.visible / std::max(b.visible, 1e-9));
  return 0;
}
