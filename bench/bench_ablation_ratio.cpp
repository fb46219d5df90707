/// \file bench_ablation_ratio.cpp
/// \brief Ablation A2 (DESIGN.md §4): client:server ratio sweep.
///
/// The paper fixes Rocpanda's ratio at 8:1 on Turing (§7.1).  This sweep
/// runs the Table-1 workload with 64 clients and 16/8/4/2 servers
/// (ratios 4:1 .. 32:1) and reports the client-visible output cost, the
/// end-of-run sync cost (draining the buffered writes), and the file count
/// — the efficiency/cost trade the 8:1 choice sits on.

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

constexpr int kClients = 64;
constexpr double kSnapshotBytes = 64.0 * 1024 * 1024;

genx::GenxConfig workload() {
  genx::GenxConfig cfg;
  cfg.mesh_spec.fluid_blocks = 192;
  cfg.mesh_spec.solid_blocks = 128;
  cfg.mesh_spec.base_block_nodes = 8;
  cfg.steps = 100;
  cfg.snapshot_interval = 50;
  cfg.compute_seconds_per_step = 846.64 * 16 / (200.0 * kClients);
  cfg.run_name = "ratio";
  return cfg;
}

double workload_real_bytes() {
  auto rocket = mesh::make_lab_scale_rocket(workload().mesh_spec);
  return static_cast<double>(rocket.total_payload_bytes()) +
         static_cast<double>(rocket.solid.size()) * 2500.0;
}

struct Result {
  double visible = 0;
  double sync = 0;
  size_t files = 0;
};

Result run(int nservers) {
  const int world_size = kClients + nservers;
  sim::Platform p = sim::turing_platform();
  p.byte_scale = kSnapshotBytes / workload_real_bytes();
  sim::Simulation sim(p);
  auto world = std::make_shared<sim::SimWorld>(sim, world_size);
  auto fs = std::make_shared<sim::SimFileSystem>(sim);

  std::vector<double> visible(static_cast<size_t>(world_size), 0);
  std::vector<double> sync(static_cast<size_t>(world_size), 0);

  for (int r = 0; r < world_size; ++r) {
    sim.add_process([&, world, fs, nservers](sim::ProcContext&) {
      auto comm = world->attach();
      sim::SimEnv env(world->sim());
      const rocpanda::Layout layout(comm->size(), nservers);
      auto local = comm->split(layout.is_server(comm->rank()) ? 1 : 0,
                               comm->rank());
      if (layout.is_server(comm->rank())) {
        (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                   rocpanda::ServerOptions{});
        return;
      }
      rocpanda::RocpandaClient client(*comm, env, layout);
      genx::GenxRun grun(*local, env, client, workload());
      grun.init_fresh();
      grun.run();
      visible[static_cast<size_t>(comm->rank())] =
          grun.stats().visible_output_seconds;
      sync[static_cast<size_t>(comm->rank())] = grun.stats().sync_seconds;
      client.shutdown();
    });
  }
  sim.run();

  Result res;
  res.visible = *std::max_element(visible.begin(), visible.end());
  res.sync = *std::max_element(sync.begin(), sync.end());
  res.files = fs->list("ratio_snap_").size();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json(&argc, argv);
  bench::reject_other_args(argc, argv);
  std::printf("Ablation A2: client:server ratio sweep (Table-1 workload, "
              "%d clients, simulated Turing).\n\n", kClients);
  std::printf("%8s %10s | %14s %14s %8s\n", "ratio", "servers",
              "visible I/O s", "final sync s", "files");
  for (int nservers : {16, 8, 4, 2}) {
    std::fprintf(stderr, "  running %d servers...\n", nservers);
    const Result r = run(nservers);
    std::printf("%6d:1 %10d | %14.2f %14.2f %8zu\n", kClients / nservers,
                nservers, r.visible, r.sync, r.files);
    json.record("ablation_ratio",
                {bench::param("servers", nservers),
                 bench::param("clients", kClients)},
                "visible_io_time", r.visible, "s");
    json.record("ablation_ratio",
                {bench::param("servers", nservers),
                 bench::param("clients", kClients)},
                "final_sync_time", r.sync, "s");
  }
  std::printf("\nexpected: fewer servers -> fewer files and fewer wasted "
              "processors, but higher per-server load (visible cost and "
              "drain time grow); the paper's 8:1 balances the two.\n");
  return 0;
}
