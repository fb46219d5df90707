/// \file bench_fig3b.cpp
/// \brief Reproduces Figure 3(b): computation time on the (simulated) ASCI
/// Frost under three processors-per-node configurations, with fixed work
/// per compute processor.
///
///   16NS — 16 compute processors per node, no I/O server (Rochdf output);
///   15NS — 15 compute per node, the 16th CPU left idle (Rochdf output);
///   15S  — 15 compute per node + 1 Rocpanda I/O server on the 16th CPU.
///
/// Mechanism under test (paper §4.1/§7.2): per-node OS daemons run on an
/// idle CPU when one exists; with all 16 CPUs computing they preempt
/// computation, and per-step synchronization propagates the worst node's
/// delay — so 16NS grows visibly with scale, 15NS stays flat, and 15S sits
/// slightly above 15NS (the server CPU is briefly busy while writing) but
/// well below 16NS.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "mesh/generators.h"
#include "roccom/roccom.h"
#include "rochdf/rochdf.h"
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

constexpr int kSteps = 40;
constexpr double kWorkPerStep = 1.0;  // seconds of compute per proc per step
constexpr int kSnapshotEvery = 10;
constexpr double kBytesPerProc = 2.0 * 1024 * 1024;  // per snapshot

enum class Config { k16NS, k15NS, k15S };

[[maybe_unused]] const char* config_name(Config c) {
  switch (c) {
    case Config::k16NS: return "16NS";
    case Config::k15NS: return "15NS";
    case Config::k15S: return "15S";
  }
  return "?";
}

std::vector<mesh::MeshBlock> client_blocks(int client_index) {
  mesh::ScalabilitySpec spec;
  spec.segments = 1;
  spec.blocks_per_segment = 2;
  spec.block_nodes = 8;
  auto blocks = mesh::make_extendible_cylinder(spec);
  for (auto& b : blocks) b.set_id(b.id() + client_index * 2);
  return blocks;
}

double real_bytes_per_proc() {
  double bytes = 0;
  for (const auto& b : client_blocks(0)) bytes += b.payload_bytes();
  return bytes;
}

/// Returns the max over compute processors of the accumulated per-step
/// compute time (I/O excluded), for `compute_procs` processors.
double run_config(Config config, int compute_procs) {
  const int per_node = config == Config::k16NS ? 16 : 15;
  const int nodes = (compute_procs + per_node - 1) / per_node;
  // 15NS and 15S occupy 16 ranks per node (the 16th is idle or a server).
  const int world_size = config == Config::k16NS
                             ? compute_procs
                             : compute_procs + nodes;

  sim::Platform p = sim::frost_platform();
  p.byte_scale = kBytesPerProc / real_bytes_per_proc();
  sim::Simulation sim(p);
  auto world = std::make_shared<sim::SimWorld>(sim, world_size);
  auto fs = std::make_shared<sim::SimFileSystem>(sim);

  std::vector<double> compute(static_cast<size_t>(world_size), 0);

  for (int r = 0; r < world_size; ++r) {
    sim.add_process([&, world, fs, config, nodes](sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());

      // Identify this rank's role.
      const rocpanda::Layout layout(
          std::max(comm->size(), 2),
          config == Config::k16NS ? 1 : nodes);  // dummy layout for 16NS
      const bool sixteenth =
          config != Config::k16NS && comm->rank() % 16 == 0;

      // Split compute ranks from 16th-CPU ranks so collectives only span
      // the compute processors.
      auto compute_comm =
          comm->split(config == Config::k16NS ? 0 : (sixteenth ? 1 : 0),
                      comm->rank());

      if (config == Config::k15NS && sixteenth) return;  // idle CPU
      if (config == Config::k15S && sixteenth) {
        (void)rocpanda::run_server(*comm, *compute_comm, env, *fs, layout,
                                   rocpanda::ServerOptions{});
        return;
      }

      // Compute processor body.
      roccom::Roccom com;
      auto& win = com.create_window("field");
      auto blocks = client_blocks(compute_comm->rank());
      for (auto& b : blocks) win.register_pane(b.id(), &b);

      std::unique_ptr<rochdf::Rochdf> rochdf_io;
      std::unique_ptr<rocpanda::RocpandaClient> panda_io;
      roccom::IoService* io = nullptr;
      if (config == Config::k15S) {
        panda_io = std::make_unique<rocpanda::RocpandaClient>(*comm, env,
                                                              layout);
        io = panda_io.get();
      } else {
        rochdf_io = std::make_unique<rochdf::Rochdf>(*comm, env, *fs,
                                                     rochdf::Options{});
        io = rochdf_io.get();
      }

      double compute_acc = 0;
      for (int step = 1; step <= kSteps; ++step) {
        const double t0 = env.now();
        env.compute(kWorkPerStep);
        compute_comm->barrier();  // per-step synchronization
        compute_acc += env.now() - t0;
        if (step % kSnapshotEvery == 0) {
          // Piecewise append: `"lit" + std::to_string(...)` trips GCC
          // 12's bogus -Werror=restrict at -O3 (PR105651).
          std::string snap = "b";
          snap += std::to_string(step);
          io->write_attribute(
              com, roccom::IoRequest{"field", "all", snap, 0.0});
        }
      }
      io->sync();
      compute[static_cast<size_t>(comm->rank())] = compute_acc;
      if (panda_io) panda_io->shutdown();
    });
  }
  sim.run();
  return *std::max_element(compute.begin(), compute.end());
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json(&argc, argv);
  bench::reject_other_args(argc, argv);
  std::printf("Figure 3(b) reproduction: computation time (s) for fixed "
              "work per processor (%d steps x %.1f s) on the simulated "
              "Frost.\n\n", kSteps, kWorkPerStep);
  std::printf("%14s | %10s %10s %10s\n", "compute procs", "16NS", "15NS",
              "15S");

  const std::vector<int> series = {8, 15, 30, 60, 120, 240, 480};
  for (int n : series) {
    std::fprintf(stderr, "  running %d compute procs...\n", n);
    const double t16 = run_config(Config::k16NS, n);
    const double t15 = run_config(Config::k15NS, n);
    const double t15s = run_config(Config::k15S, n);
    std::printf("%14d | %10.2f %10.2f %10.2f\n", n, t16, t15, t15s);
    const std::pair<const char*, double> cfgs[] = {
        {"16NS", t16}, {"15NS", t15}, {"15S", t15s}};
    for (const auto& [cfg, seconds] : cfgs)
      json.record("fig3b",
                  {bench::param("config", cfg),
                   bench::param("compute_procs", n)},
                  "computation_time", seconds, "s");
  }
  std::printf("\nexpected shape (paper): 16NS grows visibly with scale as "
              "OS noise preempts computation and per-step synchronization "
              "propagates the slowest node; 15NS stays flat (the idle CPU "
              "absorbs the daemons); 15S is slightly above 15NS but well "
              "below 16NS — dedicating one CPU per node to I/O also "
              "offloads the OS.\n");
  return 0;
}
