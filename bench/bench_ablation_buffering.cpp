/// \file bench_ablation_buffering.cpp
/// \brief Ablation A1 (DESIGN.md §4): what active buffering buys.
///
/// The Table-1 workload at 32 compute processors, Rocpanda with active
/// buffering ON vs OFF (servers write synchronously before acknowledging),
/// and additionally with a small server buffer to exercise the graceful
/// overflow path.  Reported: client-visible output time and end-to-end
/// run time on the simulated Turing cluster.

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
#include "bench_trace.h"

namespace {

using namespace roc;

constexpr int kClients = 32;
constexpr int kServers = 4;
constexpr double kSnapshotBytes = 64.0 * 1024 * 1024;

genx::GenxConfig workload() {
  genx::GenxConfig cfg;
  cfg.mesh_spec.fluid_blocks = 192;
  cfg.mesh_spec.solid_blocks = 128;
  cfg.mesh_spec.base_block_nodes = 8;
  cfg.steps = 100;
  cfg.snapshot_interval = 50;
  cfg.compute_seconds_per_step = 846.64 * 16 / (200.0 * kClients);
  cfg.run_name = "ab";
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
  uint64_t spills = 0;
  uint64_t peak_buffer = 0;
};

Result run(const rocpanda::ServerOptions& server_opts) {
  const int world_size = kClients + kServers;
  sim::Platform p = sim::turing_platform();
  p.byte_scale = kSnapshotBytes / workload_real_bytes();
  sim::Simulation sim(p);
  auto world = std::make_shared<sim::SimWorld>(sim, world_size);
  auto fs = std::make_shared<sim::SimFileSystem>(sim);

  std::vector<double> visible(static_cast<size_t>(world_size), 0);
  std::vector<double> total(static_cast<size_t>(world_size), 0);
  Result res;

  for (int r = 0; r < world_size; ++r) {
    sim.add_process([&, world, fs, server_opts](sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());
      const rocpanda::Layout layout(comm->size(), kServers);
      auto local = comm->split(layout.is_server(comm->rank()) ? 1 : 0,
                               comm->rank());
      if (layout.is_server(comm->rank())) {
        const auto stats = rocpanda::run_server(*comm, *local, env, *fs,
                                                layout, server_opts);
        if (layout.server_index(comm->rank()) == 0) {
          res.spills = stats.spills;
          res.peak_buffer = stats.buffered_bytes_peak;
        }
        return;
      }
      rocpanda::RocpandaClient client(*comm, env, layout);
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
  res.visible = *std::max_element(visible.begin(), visible.end());
  res.total = *std::max_element(total.begin(), total.end());
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json(&argc, argv);
  bench::TraceSession trace(&argc, argv);
  bench::reject_other_args(argc, argv);
  std::printf("Ablation A1: active buffering in Rocpanda (Table-1 workload, "
              "%d clients + %d servers, 100 steps, 3 snapshots).\n\n",
              kClients, kServers);
  std::printf("%-34s %14s %14s %10s %16s\n", "configuration",
              "visible I/O s", "total run s", "spills", "peak buffer B");

  rocpanda::ServerOptions on;
  std::fprintf(stderr, "  running: buffering on...\n");
  const Result a = run(on);
  std::printf("%-34s %14.2f %14.2f %10llu %16llu\n",
              "active buffering (unbounded)", a.visible, a.total,
              static_cast<unsigned long long>(a.spills),
              static_cast<unsigned long long>(a.peak_buffer));

  json.record("ablation_buffering",
              {bench::param("config", "unbounded")},
              "visible_io_time", a.visible, "s");
  json.record("ablation_buffering",
              {bench::param("config", "unbounded")},
              "total_run_time", a.total, "s");
  bench::TraceSession::print(trace.collect("unbounded", &json));

  rocpanda::ServerOptions small = on;
  small.buffer_capacity = 2 * 1024 * 1024;  // real bytes; forces spills
  std::fprintf(stderr, "  running: buffering with small buffer...\n");
  const Result b = run(small);
  std::printf("%-34s %14.2f %14.2f %10llu %16llu\n",
              "active buffering (2 MB buffer)", b.visible, b.total,
              static_cast<unsigned long long>(b.spills),
              static_cast<unsigned long long>(b.peak_buffer));

  json.record("ablation_buffering",
              {bench::param("config", "small_buffer")},
              "visible_io_time", b.visible, "s");
  json.record("ablation_buffering",
              {bench::param("config", "small_buffer")},
              "spills", static_cast<double>(b.spills), "blocks");
  bench::TraceSession::print(trace.collect("small_buffer", &json));

  rocpanda::ServerOptions off;
  off.active_buffering = false;
  std::fprintf(stderr, "  running: buffering off...\n");
  const Result c = run(off);
  std::printf("%-34s %14.2f %14.2f %10llu %16llu\n",
              "no active buffering (sync write)", c.visible, c.total,
              static_cast<unsigned long long>(c.spills),
              static_cast<unsigned long long>(c.peak_buffer));

  json.record("ablation_buffering",
              {bench::param("config", "no_buffering")},
              "visible_io_time", c.visible, "s");
  bench::TraceSession::print(trace.collect("no_buffering", &json));

  std::printf("\nexpected: without buffering the clients wait for the "
              "actual NFS writes (visible cost ~%0.0fx higher); a small "
              "buffer degrades gracefully via spilling, never losing "
              "data.\n", c.visible / std::max(a.visible, 1e-9));
  return 0;
}
