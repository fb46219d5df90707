/// \file bench_table1.cpp
/// \brief Reproduces Table 1 of the paper: computation and I/O times of
/// the lab-scale GENx run on the (simulated) Turing cluster.
///
/// Workload, per the paper §7.1: the same lab-scale rocket partitioned
/// onto 16/32/64 compute processors, 200 time steps, a snapshot every 50
/// steps (5 output phases including the initial one), ~64 MB written per
/// snapshot, Rocpanda at an 8:1 client:server ratio.  The three I/O
/// implementations are the real library code running on the simulated
/// platform (DESIGN.md §5); "visible I/O time" is the virtual time spent
/// inside the output interfaces, "restart time" the virtual time reading
/// the last checkpoint back in a fresh deployment.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "genx/orchestrator.h"
#include "mesh/partition.h"
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

enum class Mode { kRochdf, kTRochdf, kRocpanda };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kRochdf: return "Rochdf";
    case Mode::kTRochdf: return "T-Rochdf";
    case Mode::kRocpanda: return "Rocpanda";
  }
  return "?";
}

// Paper workload constants.
constexpr int kSteps = 200;
constexpr int kSnapshotInterval = 50;
constexpr double kSnapshotBytes = 64.0 * 1024 * 1024;  // ~64 MB
constexpr double kComputeProcSeconds = 846.64 * 16;    // total work (16p ref)
constexpr int kClientsPerServer = 8;

genx::GenxConfig workload_config(int nclients) {
  genx::GenxConfig cfg;
  // Fine-grained irregular mesh: ~320 blocks + one burn block per solid
  // block (the paper's "large number of mesh blocks").
  cfg.mesh_spec.fluid_blocks = 192;
  cfg.mesh_spec.solid_blocks = 128;
  cfg.mesh_spec.base_block_nodes = 8;
  cfg.steps = kSteps;
  cfg.snapshot_interval = kSnapshotInterval;
  cfg.compute_seconds_per_step =
      kComputeProcSeconds / (kSteps * static_cast<double>(nclients));
  cfg.run_name = "genx";
  return cfg;
}

/// Real payload bytes of one snapshot of this workload (computed once to
/// derive the byte_scale that makes the cost models see ~64 MB).
double workload_real_bytes() {
  const auto cfg = workload_config(16);
  auto rocket = mesh::make_lab_scale_rocket(cfg.mesh_spec);
  double bytes = static_cast<double>(rocket.total_payload_bytes());
  // Burn blocks add a small amount; approximate by generating one.
  bytes += static_cast<double>(rocket.solid.size()) * 2500.0;
  return bytes;
}

struct CellResult {
  double compute = 0;   ///< Max over clients of compute seconds.
  double visible = 0;   ///< Max over clients of visible output seconds.
  double restart = 0;   ///< Max over clients of restart read seconds.
  uint64_t files = 0;   ///< Snapshot files on the file system.
};

sim::Platform platform_for(int /*nclients*/) {
  sim::Platform p = sim::turing_platform();
  p.byte_scale = kSnapshotBytes / workload_real_bytes();
  return p;
}

/// Phase 1: the full 200-step run; returns timing and leaves the snapshot
/// files in `store`.
CellResult run_write_phase(int nclients, Mode mode,
                           vfs::MemFileSystem store) {
  const int nservers =
      mode == Mode::kRocpanda
          ? rocpanda::Layout::with_ratio(
                nclients + nclients / kClientsPerServer, kClientsPerServer)
                .nservers()
          : 0;
  const int world_size = nclients + nservers;

  sim::Simulation sim(platform_for(nclients));
  auto world = std::make_shared<sim::SimWorld>(sim, world_size);
  auto fs = std::make_shared<sim::SimFileSystem>(sim, store);

  std::vector<double> compute(static_cast<size_t>(world_size), 0);
  std::vector<double> visible(static_cast<size_t>(world_size), 0);

  for (int r = 0; r < world_size; ++r) {
    sim.add_process([&, world, fs, nclients, nservers, mode](
                        sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());

      if (mode == Mode::kRocpanda) {
        const rocpanda::Layout layout(comm->size(), nservers);
        auto local = comm->split(layout.is_server(comm->rank()) ? 1 : 0,
                                 comm->rank());
        if (layout.is_server(comm->rank())) {
          (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                     rocpanda::ServerOptions{});
          return;
        }
        rocpanda::RocpandaClient client(*comm, env, layout);
        genx::GenxRun run(*local, env, client, workload_config(nclients));
        run.init_fresh();
        run.run();
        compute[static_cast<size_t>(comm->rank())] =
            run.stats().compute_seconds;
        visible[static_cast<size_t>(comm->rank())] =
            run.stats().visible_output_seconds;
        client.shutdown();
      } else {
        rochdf::Options o;
        o.threaded = mode == Mode::kTRochdf;
        rochdf::Rochdf io(*comm, env, *fs, o);
        genx::GenxRun run(*comm, env, io, workload_config(nclients));
        run.init_fresh();
        run.run();
        compute[static_cast<size_t>(comm->rank())] =
            run.stats().compute_seconds;
        visible[static_cast<size_t>(comm->rank())] =
            run.stats().visible_output_seconds;
      }
    });
  }
  sim.run();

  CellResult res;
  res.compute = *std::max_element(compute.begin(), compute.end());
  res.visible = *std::max_element(visible.begin(), visible.end());
  res.files = store.list("genx_snap_").size();
  return res;
}

/// Phase 2: a fresh deployment reads the final checkpoint (restart
/// latency).  T-Rochdf restarts exactly like Rochdf (paper §7.1).
double run_restart_phase(int nclients, Mode mode, vfs::MemFileSystem store) {
  const int nservers =
      mode == Mode::kRocpanda
          ? rocpanda::Layout::with_ratio(
                nclients + nclients / kClientsPerServer, kClientsPerServer)
                .nservers()
          : 0;
  const int world_size = nclients + nservers;

  sim::Simulation sim(platform_for(nclients));
  auto world = std::make_shared<sim::SimWorld>(sim, world_size);
  auto fs = std::make_shared<sim::SimFileSystem>(sim, store);
  std::vector<double> restart(static_cast<size_t>(world_size), 0);

  const std::string last = "genx_snap_000200";
  for (int r = 0; r < world_size; ++r) {
    sim.add_process([&, world, fs, nclients, nservers, mode](
                        sim::ProcContext& ctx) {
      auto comm = world->attach();
      sim::SimEnv env(ctx.sim());

      auto restart_with = [&](comm::Comm& clients, roccom::IoService& io) {
        genx::GenxConfig cfg = workload_config(nclients);
        cfg.steps = 0;
        cfg.snapshot_interval = 0;
        genx::GenxRun run(clients, env, io, cfg);
        // Registered panes match the writing run's deterministic
        // partition; restart fills them from the checkpoint.
        run.init_fresh();
        const double t0 = env.now();
        io.read_attribute(run.com(),
                          roccom::IoRequest{"fluid", "all", last, 0});
        io.read_attribute(run.com(),
                          roccom::IoRequest{"solid", "all", last, 0});
        io.read_attribute(run.com(),
                          roccom::IoRequest{"burn", "all", last, 0});
        restart[static_cast<size_t>(comm->rank())] = env.now() - t0;
      };

      if (mode == Mode::kRocpanda) {
        const rocpanda::Layout layout(comm->size(), nservers);
        auto local = comm->split(layout.is_server(comm->rank()) ? 1 : 0,
                                 comm->rank());
        if (layout.is_server(comm->rank())) {
          (void)rocpanda::run_server(*comm, *local, env, *fs, layout,
                                     rocpanda::ServerOptions{});
          return;
        }
        rocpanda::RocpandaClient client(*comm, env, layout);
        restart_with(*local, client);
        client.shutdown();
      } else {
        rochdf::Rochdf io(*comm, env, *fs, rochdf::Options{});
        restart_with(*comm, io);
      }
    });
  }
  sim.run();
  return *std::max_element(restart.begin(), restart.end());
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json(&argc, argv);
  bench::reject_other_args(argc, argv);
  const std::vector<int> procs = {16, 32, 64};

  std::printf("Table 1 reproduction: computation and I/O times on the "
              "simulated Turing cluster, in seconds.\n");
  std::printf("Workload: lab-scale rocket, 200 steps, snapshot every 50 "
              "(5 outputs, ~64 MB each), Rocpanda at 8:1.\n\n");

  struct Row {
    std::vector<double> v;
  };
  std::vector<double> compute_row;
  std::vector<double> visible_rochdf, visible_trochdf, visible_rocpanda;
  std::vector<double> restart_rochdf, restart_rocpanda;
  std::vector<uint64_t> files_rochdf, files_rocpanda;

  for (int n : procs) {
    for (Mode mode : {Mode::kRochdf, Mode::kTRochdf, Mode::kRocpanda}) {
      vfs::MemFileSystem store;
      std::fprintf(stderr, "  running %d procs, %s ...\n", n,
                   mode_name(mode));
      const CellResult cell = run_write_phase(n, mode, store);
      switch (mode) {
        case Mode::kRochdf:
          if (compute_row.size() < procs.size())
            compute_row.push_back(cell.compute);
          visible_rochdf.push_back(cell.visible);
          files_rochdf.push_back(cell.files);
          restart_rochdf.push_back(run_restart_phase(n, mode, store));
          break;
        case Mode::kTRochdf:
          visible_trochdf.push_back(cell.visible);
          break;
        case Mode::kRocpanda:
          visible_rocpanda.push_back(cell.visible);
          files_rocpanda.push_back(cell.files);
          restart_rocpanda.push_back(run_restart_phase(n, mode, store));
          break;
      }
    }
  }

  auto print_row = [&](const char* label, const std::vector<double>& v,
                       const char* paper) {
    std::printf("%-24s", label);
    for (double x : v) std::printf("%10.2f", x);
    std::printf("   (paper: %s)\n", paper);
  };

  std::printf("%-24s", "compute procs");
  for (int n : procs) std::printf("%10d", n);
  std::printf("\n");
  print_row("computation time", compute_row, "846.64 / 393.05 / 203.24");
  print_row("visible I/O  Rochdf", visible_rochdf, "51.58 / 83.28 / 51.19");
  print_row("visible I/O  T-Rochdf", visible_trochdf, "0.38 / 0.18 / 0.11");
  print_row("visible I/O  Rocpanda", visible_rocpanda, "2.40 / 1.48 / 1.94");
  print_row("restart time Rochdf", restart_rochdf, "5.33 / 1.93 / 0.72");
  print_row("restart time Rocpanda", restart_rocpanda, "69.9 / 39.2 / 18.2");

  for (size_t i = 0; i < procs.size(); ++i) {
    const int n = procs[i];
    json.record("table1", {bench::param("procs", n)}, "computation_time",
                compute_row[i], "s");
    const std::pair<const char*, const std::vector<double>*> vis[] = {
        {"rochdf", &visible_rochdf},
        {"trochdf", &visible_trochdf},
        {"rocpanda", &visible_rocpanda}};
    for (const auto& [svc, row] : vis)
      json.record("table1",
                  {bench::param("procs", n), bench::param("service", svc)},
                  "visible_io_time", (*row)[i], "s");
    json.record("table1",
                {bench::param("procs", n), bench::param("service", "rochdf")},
                "restart_time", restart_rochdf[i], "s");
    json.record("table1",
                {bench::param("procs", n),
                 bench::param("service", "rocpanda")},
                "restart_time", restart_rocpanda[i], "s");
  }

  std::printf("\nderived claims (§7.1):\n");
  for (size_t i = 0; i < procs.size(); ++i) {
    std::printf(
        "  %2d procs: Rocpanda reduces visible I/O %.0fx vs Rochdf "
        "(paper: 21x-55x); files per run: Rochdf %llu, Rocpanda %llu "
        "(%.0fx fewer; paper: 8x)\n",
        procs[i], visible_rochdf[i] / visible_rocpanda[i],
        static_cast<unsigned long long>(files_rochdf[i]),
        static_cast<unsigned long long>(files_rocpanda[i]),
        static_cast<double>(files_rochdf[i]) /
            static_cast<double>(files_rocpanda[i]));
  }
  return 0;
}
