/// \file bench_fig3a.cpp
/// \brief Reproduces Figure 3(a): apparent aggregate write throughput on
/// the (simulated) ASCI Frost as the number of compute processors grows.
///
/// Workload, per the paper §7.2: the "scalability" test — an extendible
/// cylinder with a FIXED amount of data per compute processor, so total
/// data scales with processors.  Rocpanda runs 15 compute processors + 1
/// I/O server per 16-way SMP node; Rochdf runs all processors as compute.
/// Apparent throughput = total output bytes / total visible output cost
/// (the time the compute processors wait).  The paper reports ~875 MB/s at
/// 512 total processors for Rocpanda, >5x the best parallel HDF5 result on
/// the same machine, with the 1..15 rise driven by intra-node
/// message-passing utilization.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
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
#include "bench_trace.h"

namespace {

using namespace roc;

// Fixed data per compute processor (the paper does not state the exact
// size; 4 MB/processor is era-plausible and documented in EXPERIMENTS.md).
constexpr double kBytesPerProc = 4.0 * 1024 * 1024;
constexpr int kBlocksPerProc = 4;
constexpr int kProcsPerNode = 16;
constexpr int kComputePerNode = 15;

/// Generates one client's blocks (ids disjoint per client).
std::vector<mesh::MeshBlock> client_blocks(int client_index) {
  mesh::ScalabilitySpec spec;
  spec.segments = 1;
  spec.blocks_per_segment = kBlocksPerProc;
  spec.block_nodes = 9;  // small real payload; byte_scale maps to 4 MB
  auto blocks = mesh::make_extendible_cylinder(spec);
  for (auto& b : blocks)
    b.set_id(b.id() + client_index * kBlocksPerProc);
  return blocks;
}

double real_bytes_per_proc() {
  double bytes = 0;
  for (const auto& b : client_blocks(0)) bytes += b.payload_bytes();
  return bytes;
}

struct Point {
  int compute_procs;
  double throughput_mb_s;
  int total_procs;
};

/// One Rocpanda run: returns apparent aggregate throughput (MB/s).
Point run_rocpanda(int compute_procs) {
  const int nodes = (compute_procs + kComputePerNode - 1) / kComputePerNode;
  const int world_size = compute_procs + nodes;  // +1 server per node

  sim::Platform p = sim::frost_platform();
  p.byte_scale = kBytesPerProc / real_bytes_per_proc();
  sim::Simulation sim(p);
  auto world = std::make_shared<sim::SimWorld>(sim, world_size);
  auto fs = std::make_shared<sim::SimFileSystem>(sim);

  std::vector<double> visible(static_cast<size_t>(world_size), 0);
  for (int r = 0; r < world_size; ++r) {
    sim.add_process([&, world, fs, nodes](sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());
      const rocpanda::Layout layout(comm->size(), nodes);
      auto local = comm->split(layout.is_server(comm->rank()) ? 1 : 0,
                               comm->rank());
      if (layout.is_server(comm->rank())) {
        (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                   rocpanda::ServerOptions{});
        return;
      }
      roccom::Roccom com;
      auto& win = com.create_window("field");
      auto blocks = client_blocks(layout.client_index(comm->rank()));
      for (auto& b : blocks) win.register_pane(b.id(), &b);

      rocpanda::RocpandaClient client(*comm, env, layout);
      const double t0 = env.now();
      client.write_attribute(com,
                             roccom::IoRequest{"field", "all", "scal", 0.0});
      visible[static_cast<size_t>(comm->rank())] = env.now() - t0;
      client.sync();
      client.shutdown();
    });
  }
  sim.run();

  const double max_visible =
      *std::max_element(visible.begin(), visible.end());
  const double total_bytes = kBytesPerProc * compute_procs;
  return Point{compute_procs, total_bytes / max_visible / 1e6, world_size};
}

/// One Rochdf run (no servers; every processor computes and writes).
Point run_rochdf(int compute_procs) {
  sim::Platform p = sim::frost_platform();
  p.byte_scale = kBytesPerProc / real_bytes_per_proc();
  sim::Simulation sim(p);
  auto world = std::make_shared<sim::SimWorld>(sim, compute_procs);
  auto fs = std::make_shared<sim::SimFileSystem>(sim);

  std::vector<double> visible(static_cast<size_t>(compute_procs), 0);
  for (int r = 0; r < compute_procs; ++r) {
    sim.add_process([&, world, fs](sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());
      roccom::Roccom com;
      auto& win = com.create_window("field");
      auto blocks = client_blocks(comm->rank());
      for (auto& b : blocks) win.register_pane(b.id(), &b);

      rochdf::Rochdf io(*comm, env, *fs, rochdf::Options{});
      const double t0 = env.now();
      io.write_attribute(com, roccom::IoRequest{"field", "all", "scal", 0.0});
      visible[static_cast<size_t>(comm->rank())] = env.now() - t0;
    });
  }
  sim.run();
  const double max_visible =
      *std::max_element(visible.begin(), visible.end());
  return Point{compute_procs, kBytesPerProc * compute_procs / max_visible / 1e6,
               compute_procs};
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json(&argc, argv);
  bench::TraceSession trace(&argc, argv);
  // --smoke: the CI configuration -- a short series that still exercises
  // both services and the intra-node rise, done in seconds.
  const bool smoke = bench::take_switch(&argc, argv, "--smoke");
  bench::reject_other_args(argc, argv);
  std::printf("Figure 3(a) reproduction: apparent aggregate write "
              "throughput on the simulated ASCI Frost (MB/s).\n");
  std::printf("Fixed %.0f MB per compute processor; Rocpanda: 15 compute + "
              "1 server per 16-way node.\n\n", kBytesPerProc / 1e6);
  std::printf("%14s %14s | %14s %14s | %10s\n", "compute procs",
              "total procs", "Rocpanda MB/s", "Rochdf MB/s", "winner");

  const std::vector<int> series =
      smoke ? std::vector<int>{1, 4, 15}
            : std::vector<int>{1, 2, 4, 8, 15, 30, 60, 120, 240, 480};
  double panda_at_480 = 0;
  for (int n : series) {
    std::fprintf(stderr, "  running %d compute procs...\n", n);
    const Point panda = run_rocpanda(n);
    (void)trace.collect("rocpanda/" + std::to_string(n), &json);
    const Point hdf = run_rochdf(n);
    (void)trace.collect("rochdf/" + std::to_string(n), &json);
    if (n == 480) panda_at_480 = panda.throughput_mb_s;
    json.record("fig3a",
                {bench::param("service", "rocpanda"),
                 bench::param("compute_procs", n),
                 bench::param("total_procs", panda.total_procs)},
                "apparent_throughput", panda.throughput_mb_s, "MB/s");
    json.record("fig3a",
                {bench::param("service", "rochdf"),
                 bench::param("compute_procs", n),
                 bench::param("total_procs", hdf.total_procs)},
                "apparent_throughput", hdf.throughput_mb_s, "MB/s");
    std::printf("%14d %14d | %14.1f %14.1f | %10s\n", n, panda.total_procs,
                panda.throughput_mb_s, hdf.throughput_mb_s,
                panda.throughput_mb_s > hdf.throughput_mb_s ? "Rocpanda"
                                                            : "Rochdf");
  }
  std::printf("\npaper: Rocpanda reaches ~875 MB/s at 512 total processors "
              "(measured here: %.0f MB/s), >5x the best parallel-HDF5 "
              "throughput on Frost.\n", panda_at_480);
  std::printf("expected shape: Rocpanda rises over 1..15 (intra-node "
              "bandwidth utilization), then scales with the server count; "
              "Rochdf stays near the GPFS limit.\n");
  return 0;
}
