/// \file bench_ablation_probe.cpp
/// \brief Ablation A4 (DESIGN.md §4): the servers' probe strategy.
///
/// Paper §6.1: when a Rocpanda server has nothing to write it uses the
/// BLOCKING probe, so the server CPU goes idle and the operating system
/// can use it (the SMP effect of Fig 3(b)).  The alternative — spinning on
/// the non-blocking probe — keeps the 16th CPU busy and re-exposes the
/// computation to OS noise.  This bench runs the Fig 3(b) "15S"
/// configuration with both strategies and reports the computation time.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "mesh/generators.h"
#include "roccom/roccom.h"
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

constexpr int kSteps = 30;
constexpr double kWorkPerStep = 1.0;
constexpr int kSnapshotEvery = 10;

std::vector<mesh::MeshBlock> client_blocks(int client_index) {
  mesh::ScalabilitySpec spec;
  spec.segments = 1;
  spec.blocks_per_segment = 2;
  spec.block_nodes = 8;
  auto blocks = mesh::make_extendible_cylinder(spec);
  for (auto& b : blocks) b.set_id(b.id() + client_index * 2);
  return blocks;
}

double run(bool blocking_probe, int compute_procs) {
  const int nodes = (compute_procs + 14) / 15;
  const int world_size = compute_procs + nodes;

  sim::Platform p = sim::frost_platform();
  sim::Simulation sim(p);
  auto world = std::make_shared<sim::SimWorld>(sim, world_size);
  auto fs = std::make_shared<sim::SimFileSystem>(sim);
  std::vector<double> compute(static_cast<size_t>(world_size), 0);

  for (int r = 0; r < world_size; ++r) {
    sim.add_process([&, world, fs, nodes, blocking_probe](
                        sim::ProcContext&) {
      auto comm = world->attach();
      sim::SimEnv env(world->sim());
      const rocpanda::Layout layout(comm->size(), nodes);
      auto local = comm->split(layout.is_server(comm->rank()) ? 1 : 0,
                               comm->rank());
      if (layout.is_server(comm->rank())) {
        rocpanda::ServerOptions opts;
        opts.blocking_probe_when_idle = blocking_probe;
        (void)rocpanda::run_server(*comm, *local, env, *fs, layout, opts);
        return;
      }
      roccom::Roccom com;
      auto& win = com.create_window("field");
      auto blocks = client_blocks(layout.client_index(comm->rank()));
      for (auto& b : blocks) win.register_pane(b.id(), &b);
      rocpanda::RocpandaClient client(*comm, env, layout);

      double acc = 0;
      for (int step = 1; step <= kSteps; ++step) {
        const double t0 = env.now();
        env.compute(kWorkPerStep);
        local->barrier();
        acc += env.now() - t0;
        if (step % kSnapshotEvery == 0) {
          // Piecewise append: `"lit" + std::to_string(...)` trips GCC
          // 12's bogus -Werror=restrict at -O3 (PR105651).
          std::string snap = "p";
          snap += std::to_string(step);
          client.write_attribute(
              com, roccom::IoRequest{"field", "all", snap, 0.0});
        }
      }
      client.sync();
      compute[static_cast<size_t>(comm->rank())] = acc;
      client.shutdown();
    });
  }
  sim.run();
  return *std::max_element(compute.begin(), compute.end());
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json(&argc, argv);
  bench::reject_other_args(argc, argv);
  std::printf("Ablation A4: server probe strategy (Fig 3(b) '15S' "
              "configuration, %d steps x %.1f s work).\n\n", kSteps,
              kWorkPerStep);
  std::printf("%14s | %18s %18s %10s\n", "compute procs", "blocking probe s",
              "polling probe s", "penalty");
  for (int n : {30, 120, 240}) {
    std::fprintf(stderr, "  running %d compute procs...\n", n);
    const double block = run(true, n);
    const double poll = run(false, n);
    std::printf("%14d | %18.2f %18.2f %9.1f%%\n", n, block, poll,
                100.0 * (poll - block) / block);
    json.record("ablation_probe",
                {bench::param("probe", "blocking"),
                 bench::param("compute_procs", n)},
                "computation_time", block, "s");
    json.record("ablation_probe",
                {bench::param("probe", "polling"),
                 bench::param("compute_procs", n)},
                "computation_time", poll, "s");
  }
  std::printf("\nexpected: with the polling server the 16th CPU never goes "
              "idle, so the OS daemons preempt computation — the blocking "
              "probe preserves the paper's OS-offloading benefit.\n");
  return 0;
}
