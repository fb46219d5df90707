/// \file main.cpp
/// \brief perfbench: wall-clock snapshot cost of Rochdf, T-Rochdf and
/// Rocpanda on the real substrate (ThreadComm + RealEnv + PosixFileSystem).
///
///   perfbench --workload bulk|fine|restart --seed N --seconds S --trace 0|1
///             [--root DIR]
///
/// Each service runs in its own deployment of at most 4 threads.  Clients
/// compute (sleep) for a fixed interval between snapshots, then snapshot
/// through the Roccom verbs.  The run reports, per service, the perceived
/// cost (slowest rank's write_attribute time per snapshot), the commit time
/// of a snapshot issued to an idle service (write_attribute through sync),
/// and N->M restart time (list_panes + fetch_blocks).  Every committed
/// snapshot and restart result is checked bit for bit against the generated
/// mesh.  --trace 1 reruns the same phases with the layer decorators and the
/// program's trace spans on and prints the per-layer budget instead.  The
/// last stdout line is one JSON object; see README.md.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/env.h"
#include "comm/thread_comm.h"
#include "roccom/io_service.h"
#include "rochdf/rochdf.h"
#include "rocpanda/client.h"
#include "rocpanda/server.h"
#include "telemetry/trace.h"
#include "util/crc64.h"
#include "util/stopwatch.h"
#include "vfs/vfs.h"

#include "decorators.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using roc::Stopwatch;
using roc::comm::Comm;
using roc::comm::RealEnv;
using roc::mesh::MeshBlock;

// Deployments: at most 4 threads each (the box has 4 cores), counting
// T-Rochdf writers and Rocpanda servers.
constexpr int kRochdfRanks = 4;
constexpr int kTRochdfRanks = 2;  // + one writer thread each
constexpr int kPandaClients = 3;
constexpr int kPandaServers = 1;
// Restart deployments differ from the 4-rank Rochdf run that wrote the
// checkpoint: N->M.
constexpr int kRestartPandaClients = 2;
constexpr int kRestartPandaServers = 2;
constexpr int kRestartRochdfRanks = 3;
constexpr int kCheckpointRanks = 4;

/// Phases run in rounds, each a fresh deployment: slow drifts of the
/// machine during a run then fall on every metric alike instead of on one
/// service's phase.
constexpr int kRounds = 6;
constexpr int kWarmupSnapshots = 2;
// Per deployment, whatever the time budget.
constexpr int kMinSnapshots = 5;
constexpr int kMinCommits = 2;
constexpr int kMinRestarts = 3;
constexpr int kSetupRepeats = 15;
/// Snapshot files kept behind the newest one; older ones are deleted as
/// the run goes so the footprint stays a few snapshots.
constexpr int kKeepSnapshots = 3;
/// Stamp of the checkpoint written during set-up.
constexpr int kCheckpointStamp = -1;
constexpr const char* kCheckpointBase = "ckpt";
constexpr const char* kServiceWindow = "io";

enum class Service { kRochdf, kTRochdf, kRocpanda };

const char* service_name(Service s) {
  switch (s) {
    case Service::kRochdf: return "rochdf";
    case Service::kTRochdf: return "trochdf";
    case Service::kRocpanda: return "rocpanda";
  }
  return "?";
}

std::string snapshot_base(int k) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "s%06d", k);
  return buf;
}

/// Runs one IoService call, recording success or the thrown failure.
void call(Tally& tally, const std::function<void()>& fn) {
  try {
    fn();
    tally.record(true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: IoService call failed: %s\n", e.what());
    tally.record(false);
  }
}

/// Paces a timed loop over the clients' communicator: rank 0 decides, and
/// one broadcast per iteration tells every rank whether to go on, which
/// also lines the ranks up before each timed operation.
class Pacer {
 public:
  Pacer(Comm& clients, double budget_s, int min_iterations)
      : clients_(clients), budget_s_(budget_s), min_(min_iterations) {}

  bool next() {
    std::vector<unsigned char> go(1, 0);
    if (clients_.rank() == 0)
      go[0] = n_ < min_ || watch_.seconds() < budget_s_;
    clients_.bcast(go, 0);
    if (go[0] != 0) ++n_;
    return go[0] != 0;
  }
  [[nodiscard]] int count() const { return n_; }

 private:
  Comm& clients_;
  Stopwatch watch_;
  double budget_s_;
  int min_;
  int n_ = 0;
};

/// Per-operation maximum over ranks: a collective operation costs what its
/// slowest rank waited.
std::vector<double> slowest(const std::vector<std::vector<double>>& per_rank) {
  std::vector<double> out;
  for (const auto& r : per_rank) {
    if (out.size() < r.size()) out.resize(r.size(), 0.0);
    for (size_t i = 0; i < r.size(); ++i) out[i] = std::max(out[i], r[i]);
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The highest percentile, up to p90, that keeps ten samples beyond it.
double tail_quantile(size_t n) {
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.9);
}

/// Layer instruments of one deployment; live only in the traced run.
struct Probe {
  VfsCounters vfs;
  CommCounters client_comm;
  CommCounters server_comm;
  void reset() {
    vfs.reset();
    client_comm.reset();
    server_comm.reset();
  }
};

/// What one deployment measured.
struct Run {
  int clients = 0;
  int servers = 0;
  std::vector<double> perceived_s;  ///< slowest rank per timed operation
  std::vector<double> commit_s;     ///< slowest rank per commit
  int last_k = 0;                   ///< last committed snapshot
  // Traced run: layer readings over the timed phase.
  VfsCounters::Values vfs;
  CommCounters::Values client_comm;
  CommCounters::Values server_comm;
  SpanLedger spans;
  std::vector<roc::rocpanda::ServerStats> server;  ///< one per server
  uint64_t snapshot_waits = 0;
  uint64_t datasets_per_file = 0;
  // Server stats folded over servers and rounds by merge().
  uint64_t buffered_peak = 0;
  uint64_t spills = 0;

  [[nodiscard]] int ops() const { return static_cast<int>(perceived_s.size()); }

  /// Folds a later round of the same phase into this one.
  void merge(const Run& o) {
    clients = o.clients;
    servers = o.servers;
    perceived_s.insert(perceived_s.end(), o.perceived_s.begin(),
                       o.perceived_s.end());
    commit_s.insert(commit_s.end(), o.commit_s.begin(), o.commit_s.end());
    vfs += o.vfs;
    client_comm += o.client_comm;
    server_comm += o.server_comm;
    spans.merge(o.spans);
    for (const auto& s : o.server) {
      buffered_peak = std::max(buffered_peak, s.buffered_bytes_peak);
      spills += s.spills;
    }
    snapshot_waits += o.snapshot_waits;
    datasets_per_file = o.datasets_per_file;
  }
};

/// Every phase of a run, each merged over its rounds.
struct Phases {
  Run rochdf, trochdf, panda, panda_restart, rochdf_restart;
};

struct Context {
  const Workload& workload;
  const Snapshot& data;  ///< the generated mesh
  std::string root;      ///< the run's scratch directory
  bool traced = false;
  Tally& tally;
};

/// Registers one rank's blocks as panes of their windows.
void register_panes(roc::roccom::Roccom& com, Snapshot& local) {
  for (auto& w : local) {
    auto& win = com.create_window(w.name);
    for (auto& b : w.blocks) win.register_pane(b.id(), &b);
  }
}

/// Stamps every local block with `k` and writes each window as snapshot k.
void write_snapshot(roc::roccom::Roccom& com, Snapshot& local, int k,
                    const std::string& base, Tally& tally) {
  for (auto& w : local) {
    stamp(w.blocks, k);
    const roc::roccom::IoRequest req{w.name, "all", base,
                                     static_cast<double>(k)};
    call(tally, [&] {
      roc::roccom::com_write_attribute(com, kServiceWindow, req);
    });
  }
}

/// One client rank's work: the world (for the service), the clients'
/// communicator, and this rank's index among the clients.
using ClientBody =
    std::function<void(Comm& world, Comm& clients, RealEnv& env, int index)>;

/// Runs one deployment: run.clients client ranks plus run.servers Rocpanda
/// servers placed by rocpanda::Layout, one thread each.  In the traced run
/// every rank talks through a TimedComm and tracing is on.
void deploy(const Context& ctx, Probe& probe, Run& run,
            roc::vfs::FileSystem& files, const ClientBody& body) {
  roc::telemetry::set_trace_enabled(ctx.traced);
  run.server.assign(static_cast<size_t>(run.servers), {});
  try {
    roc::comm::World::run(run.clients + run.servers, [&](Comm& raw) {
      RealEnv env;
      const roc::rocpanda::Layout layout(raw.size(),
                                         std::max(run.servers, 1));
      const bool server = run.servers > 0 && layout.is_server(raw.rank());
      std::optional<TimedComm> timed;
      if (ctx.traced)
        timed.emplace(raw, server ? probe.server_comm : probe.client_comm);
      Comm& world = ctx.traced ? static_cast<Comm&>(*timed) : raw;
      if (run.servers == 0) {
        body(world, world, env, world.rank());
        return;
      }
      auto local = world.split(server ? 1 : 0, world.rank());
      if (server) {
        // Each server thread writes only its own slot.
        run.server[static_cast<size_t>(layout.server_index(world.rank()))] =
            roc::rocpanda::run_server(world, *local, env, files, layout, {});
        return;
      }
      body(world, *local, env, layout.client_index(world.rank()));
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: deployment failed: %s\n", e.what());
    ctx.tally.record(false);
  }
  roc::telemetry::set_trace_enabled(false);
}

/// The writing services' snapshot loop (and, for the buffering services,
/// the commit phase), in a deployment of their own.
Run run_writer(const Context& ctx, Service svc, double loop_s,
               double commit_s) {
  const Workload& wl = ctx.workload;
  Run run;
  run.clients = svc == Service::kRochdf    ? kRochdfRanks
                : svc == Service::kTRochdf ? kTRochdfRanks
                                           : kPandaClients;
  run.servers = svc == Service::kRocpanda ? kPandaServers : 0;
  const std::string dir = ctx.root + "/" + service_name(svc);
  fs::remove_all(dir);
  roc::vfs::PosixFileSystem posix(dir);
  Probe probe;
  TimedFileSystem timed_fs(posix, probe.vfs);
  roc::vfs::FileSystem& files =
      ctx.traced ? static_cast<roc::vfs::FileSystem&>(timed_fs) : posix;
  SpanLedger& spans = run.spans;
  std::vector<std::vector<double>> perceived(
      static_cast<size_t>(run.clients));
  std::vector<std::vector<double>> commits(static_cast<size_t>(run.clients));
  std::atomic<uint64_t> waits{0};

  // One client rank: snapshot loop, then commits.
  deploy(ctx, probe, run, files, [&](Comm& world, Comm& clients,
                                     RealEnv& env, int index) {
    const bool lead = clients.rank() == 0;
    Snapshot local = local_share(ctx.data, index, run.clients);
    roc::roccom::Roccom com;
    register_panes(com, local);
    roc::rochdf::Rochdf* rochdf = nullptr;
    std::unique_ptr<roc::roccom::IoService> service;
    if (svc == Service::kRocpanda) {
      service = std::make_unique<roc::rocpanda::RocpandaClient>(
          world, env, roc::rocpanda::Layout(world.size(), run.servers));
    } else {
      roc::rochdf::Options opts;
      opts.threaded = svc == Service::kTRochdf;
      auto r = std::make_unique<roc::rochdf::Rochdf>(world, env, files, opts);
      rochdf = r.get();
      service = std::move(r);
    }
    roc::roccom::IoModuleHandle io(com, kServiceWindow, std::move(service));
    auto sync = [&] {
      call(ctx.tally,
           [&] { roc::roccom::com_sync(com, kServiceWindow); });
    };
    // Deletes this rank's (Rochdf) or the server's (Rocpanda) files of an
    // old snapshot.  Not through the decorated file system: not measured.
    auto retire = [&](int k) {
      if (k < 0) return;
      std::string file;
      if (svc != Service::kRocpanda)
        file = roc::rochdf::Rochdf::proc_file("", snapshot_base(k),
                                              clients.rank());
      else if (lead)
        file = roc::rocpanda::server_file("", snapshot_base(k), 0);
      std::error_code ec;
      if (!file.empty()) fs::remove(dir + "/" + file, ec);
    };

    int k = 0;
    for (int i = 0; i < kWarmupSnapshots; ++i, ++k) {
      env.compute(wl.interval_s);
      clients.barrier();
      write_snapshot(com, local, k, snapshot_base(k), ctx.tally);
    }
    sync();
    clients.barrier();
    if (lead) {
      probe.reset();
      spans.discard();
    }
    const uint64_t waits0 = rochdf ? rochdf->stats().snapshot_waits : 0;
    clients.barrier();

    Pacer loop(clients, loop_s, kMinSnapshots);
    for (;; ++k) {
      if (ctx.traced && lead) spans.drain();
      env.compute(wl.interval_s);
      if (!loop.next()) break;
      const double t0 = env.now();
      write_snapshot(com, local, k, snapshot_base(k), ctx.tally);
      perceived[static_cast<size_t>(index)].push_back(env.now() - t0);
      retire(k - kKeepSnapshots);
    }
    if (rochdf) waits += rochdf->stats().snapshot_waits - waits0;
    clients.barrier();
    // Protocol traffic is complete once every write was acknowledged; the
    // barrier after the read keeps the sync's own request/ack pair out.
    if (lead) {
      run.client_comm = probe.client_comm.values();
      run.server_comm = probe.server_comm.values();
    }
    clients.barrier();
    sync();
    clients.barrier();
    if (lead) {
      run.vfs = probe.vfs.values();
      if (ctx.traced) spans.drain();
    }

    // Commit: a snapshot issued to an idle service, until it is durable.
    if (svc != Service::kRochdf && commit_s > 0) {
      Pacer commit(clients, commit_s, kMinCommits);
      for (; commit.next(); ++k) {
        const double t0 = env.now();
        write_snapshot(com, local, k, snapshot_base(k), ctx.tally);
        sync();
        commits[static_cast<size_t>(index)].push_back(env.now() - t0);
        retire(k - kKeepSnapshots);
      }
    }
    if (lead) run.last_k = k - 1;
  });
  run.perceived_s = slowest(perceived);
  run.commit_s = slowest(commits);
  run.snapshot_waits = waits.load();
  run.datasets_per_file = check_snapshot_files(
      dir, snapshot_base(run.last_k), ctx.data, run.last_k, ctx.tally);
  fs::remove_all(dir);
  return run;
}

/// Repeated N->M restarts from the set-up checkpoint: list_panes, then
/// fetch_blocks of this client's share, each result checked.
Run run_restart(const Context& ctx, Service svc, double budget_s) {
  Run run;
  run.clients =
      svc == Service::kRocpanda ? kRestartPandaClients : kRestartRochdfRanks;
  run.servers = svc == Service::kRocpanda ? kRestartPandaServers : 0;
  roc::vfs::PosixFileSystem posix(ctx.root + "/" + kCheckpointBase);
  Probe probe;
  TimedFileSystem timed_fs(posix, probe.vfs);
  roc::vfs::FileSystem& files =
      ctx.traced ? static_cast<roc::vfs::FileSystem&>(timed_fs) : posix;
  SpanLedger& spans = run.spans;
  std::vector<int> all_ids;
  for (const auto& w : ctx.data)
    for (const auto& b : w.blocks) all_ids.push_back(b.id());
  std::sort(all_ids.begin(), all_ids.end());
  std::vector<std::vector<double>> times(static_cast<size_t>(run.clients));

  deploy(ctx, probe, run, files, [&](Comm& world, Comm& clients,
                                     RealEnv& env, int index) {
    const bool lead = clients.rank() == 0;
    std::unique_ptr<roc::roccom::IoService> io;
    if (svc == Service::kRocpanda)
      io = std::make_unique<roc::rocpanda::RocpandaClient>(
          world, env, roc::rocpanda::Layout(world.size(), run.servers));
    else
      io = std::make_unique<roc::rochdf::Rochdf>(world, env, files,
                                                 roc::rochdf::Options{});
    std::vector<int> mine;  // this client's share of the blocks
    for (size_t i = 0; i < all_ids.size(); ++i)
      if (static_cast<int>(i) % run.clients == index)
        mine.push_back(all_ids[i]);
    auto restart = [&] {
      std::vector<int> ids;
      std::vector<MeshBlock> blocks;
      call(ctx.tally, [&] { ids = io->list_panes(kCheckpointBase); });
      call(ctx.tally,
           [&] { blocks = io->fetch_blocks(kCheckpointBase, mine); });
      ctx.tally.record(ids == all_ids);
      return blocks;
    };
    (void)restart();  // warm-up
    clients.barrier();
    if (lead) {
      probe.reset();
      spans.discard();
    }
    clients.barrier();
    Pacer loop(clients, budget_s, kMinRestarts);
    for (;;) {
      if (ctx.traced && lead) spans.drain();
      if (!loop.next()) break;
      Stopwatch t;
      const std::vector<MeshBlock> blocks = restart();
      times[static_cast<size_t>(index)].push_back(t.seconds());
      check_blocks(blocks, mine, ctx.data, kCheckpointStamp, ctx.tally);
    }
    clients.barrier();
    if (lead) {
      run.vfs = probe.vfs.values();
      run.client_comm = probe.client_comm.values();
      run.server_comm = probe.server_comm.values();
      if (ctx.traced) spans.drain();
    }
  });
  run.perceived_s = slowest(times);
  return run;
}

/// Set-up: generates the mesh, spins up a world and writes the restart
/// checkpoint with 4-rank Rochdf.  Returns its wall time.
double set_up(const Workload& wl, uint64_t seed, const std::string& root,
              Snapshot& data, Tally& tally) {
  Stopwatch watch;
  data = generate(wl, seed);
  const std::string dir = root + "/" + kCheckpointBase;
  fs::remove_all(dir);
  roc::vfs::PosixFileSystem files(dir);
  try {
    roc::comm::World::run(kCheckpointRanks, [&](Comm& world) {
      RealEnv env;
      Snapshot local = local_share(data, world.rank(), world.size());
      roc::roccom::Roccom com;
      register_panes(com, local);
      roc::roccom::IoModuleHandle io(
          com, kServiceWindow,
          std::make_unique<roc::rochdf::Rochdf>(world, env, files,
                                                roc::rochdf::Options{}));
      write_snapshot(com, local, kCheckpointStamp, kCheckpointBase, tally);
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: checkpoint write failed: %s\n",
                 e.what());
    tally.record(false);
  }
  return watch.seconds();
}

/// CRC-64 throughput over the workload's own arrays, in GB/s.
double crc64_gbps(const Snapshot& data) {
  uint64_t bytes = 0;
  uint64_t sink = 0;
  Stopwatch watch;
  while (watch.seconds() < 0.25) {
    for (const auto& w : data) {
      for (const auto& b : w.blocks) {
        sink ^= roc::crc64(b.coords().data(), b.coords().size() * 8);
        sink ^= roc::crc64(b.connectivity().data(),
                           b.connectivity().size() * 4);
        bytes += b.coords().size() * 8 + b.connectivity().size() * 4;
        for (const auto& f : b.fields()) {
          sink ^= roc::crc64(f.data.data(), f.data.size() * 8);
          bytes += f.data.size() * 8;
        }
      }
    }
  }
  const double gbps = static_cast<double>(bytes) / watch.seconds() / 1e9;
  // Printing the folded checksums keeps them from being optimised away.
  std::printf("crc64: %.3f GB/s over %llu bytes (fold %016llx)\n", gbps,
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(sink));
  return gbps;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints a timing's sample count, median and tail (p90, or the highest
/// percentile with ten samples beyond it); returns the median in ms.
double print_timing(const std::string& prefix,
                    const std::vector<double>& seconds) {
  const double p50_ms = quantile(seconds, 0.5) * 1e3;
  std::printf("  %-28s n=%zu  p50 %.3f ms  p%.0f %.3f ms\n", prefix.c_str(),
              seconds.size(), p50_ms, tail_quantile(seconds.size()) * 100,
              quantile(seconds, tail_quantile(seconds.size())) * 1e3);
  return p50_ms;
}

/// Prints a timing and reports its median.  Tails are printed only: on a
/// VM that shares its host they follow the host's CPU steal from run to run
/// more than the code (README.md, "Ten-run spread").
void add_timing(std::vector<Metric>& out, const std::string& prefix,
                const std::vector<double>& seconds) {
  out.push_back({prefix + "_p50", print_timing(prefix, seconds), "ms"});
}

double ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The per-layer budget (README.md has the metric -> layer -> workload map).
std::vector<Metric> layer_metrics(const Run& panda, const Run& trochdf,
                                  const Run& panda_restart,
                                  uint64_t payload, double crc_gbps,
                                  double overhead_pct) {
  const double n = panda.ops();
  const double per_client = n * panda.clients;
  const auto& cc = panda.client_comm;
  const auto& sc = panda.server_comm;
  const auto& v = panda.vfs;
  const double client_comm_ms = ms(cc[CommStat::kSendNs]) +
                                ms(cc[CommStat::kSendvNs]) +
                                ms(cc[CommStat::kRecvNs]);
  const double write_ms = panda.spans.total_ms("server", "snapshot.background");
  const double t_ops = static_cast<double>(trochdf.ops()) * trochdf.clients;
  const double restarts =
      static_cast<double>(panda_restart.ops()) * panda_restart.servers;
  const double read_ms = panda_restart.spans.total_ms("server", "restart.read");
  const auto& rv = panda_restart.vfs;
  return {
      {"rocpanda.client.marshal_ms",
       (panda.spans.total_ms("client", "ship") - client_comm_ms) / per_client,
       "ms"},
      {"rocpanda.client.ship_ms",
       (ms(cc[CommStat::kSendNs]) + ms(cc[CommStat::kSendvNs])) / per_client,
       "ms"},
      {"rocpanda.client.ack_wait_ms", ms(cc[CommStat::kAckWaitNs]) / per_client,
       "ms"},
      {"rocpanda.server.recv_buffer_ms",
       (ms(sc[CommStat::kRecvNs]) + panda.spans.total_ms("server", "buffer")) /
           n,
       "ms"},
      {"rocpanda.server.write_ms", write_ms / n, "ms"},
      {"rocpanda.server.idle_ms", panda.spans.total_ms("server", "probe.idle") / n,
       "ms"},
      {"rocpanda.server.buffered_peak_mb",
       static_cast<double>(panda.buffered_peak) / 1e6, "MB"},
      {"rocpanda.server.spills", static_cast<double>(panda.spills), "count"},
      {"rocpanda.server.restart_read_ms", read_ms / restarts, "ms"},
      {"rochdf.marshal_ms", trochdf.spans.total_ms("rochdf", "marshal") / t_ops,
       "ms"},
      {"rochdf.wait_previous_ms",
       trochdf.spans.total_ms("rochdf", "snapshot.wait_previous") / t_ops, "ms"},
      {"rochdf.snapshot_waits",
       static_cast<double>(trochdf.snapshot_waits) / t_ops, "count/snapshot"},
      {"rochdf.background_ms",
       trochdf.spans.total_ms("rochdf", "snapshot.background") / t_ops, "ms"},
      {"comm.messages",
       static_cast<double>(cc[CommStat::kMessages] + sc[CommStat::kMessages]) /
           n,
       "count"},
      {"comm.bytes",
       static_cast<double>(cc[CommStat::kBytes] + sc[CommStat::kBytes]) / n,
       "B"},
      {"comm.sendv_ms",
       (ms(cc[CommStat::kSendvNs]) + ms(sc[CommStat::kSendvNs])) / n, "ms"},
      {"comm.recv_blocked_ms",
       (ms(cc[CommStat::kRecvNs]) + ms(sc[CommStat::kRecvNs])) / n, "ms"},
      {"shdf.cpu_ms",
       (write_ms - panda.spans.vfs_child_ms("server", "snapshot.background")) /
           n,
       "ms"},
      {"shdf.datasets_per_file", static_cast<double>(panda.datasets_per_file),
       "count"},
      {"shdf.write_amplification",
       static_cast<double>(v[VfsStat::kWriteBytes]) /
           (static_cast<double>(payload) * n),
       "ratio"},
      {"shdf.read_cpu_ms",
       (read_ms - panda_restart.spans.vfs_child_ms("server", "restart.read") -
        ms(panda_restart.server_comm[CommStat::kSendNs])) /
           restarts,
       "ms"},
      {"util.crc64_gbps", crc_gbps, "GB/s"},
      {"vfs.write_ops", static_cast<double>(v[VfsStat::kWriteOps]) / n, "count"},
      {"vfs.write_bytes", static_cast<double>(v[VfsStat::kWriteBytes]) / n, "B"},
      {"vfs.write_ms", ms(v[VfsStat::kWriteNs]) / n, "ms"},
      {"vfs.open_ms", ms(v[VfsStat::kOpenNs]) / n, "ms"},
      {"vfs.flush_ms", ms(v[VfsStat::kFlushNs]) / n, "ms"},
      {"vfs.read_ops",
       static_cast<double>(rv[VfsStat::kReadOps]) / panda_restart.ops(),
       "count"},
      {"vfs.read_bytes",
       static_cast<double>(rv[VfsStat::kReadBytes]) / panda_restart.ops(), "B"},
      {"vfs.read_ms", ms(rv[VfsStat::kReadNs]) / panda_restart.ops(), "ms"},
      {"telemetry.trace_overhead_pct", overhead_pct, "%"},
  };
}

void print_json(bool correct, uint64_t attempted, uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
    if (std::isfinite(m.value))
      std::printf("%.17g", m.value);
    else
      std::printf("null");
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Pins glibc's mmap threshold at the ceiling its dynamic threshold climbs
/// to (DEFAULT_MMAP_THRESHOLD_MAX, 32 MiB on 64-bit; the trim threshold
/// follows at twice that, as glibc's own adjustment sets it).  Left
/// dynamic, the threshold slides with the allocation history, so a young
/// process's large buffers flip between fresh mmaps and heap reuse from run
/// to run; pinned, every run sees the steady state a long-running
/// simulation reaches.  mallopt refuses values past the ceiling, so a
/// refusal is an error rather than a silent no-op.
void pin_malloc_thresholds() {
  constexpr int kMmapThreshold = 32 << 20;
  if (mallopt(M_MMAP_THRESHOLD, kMmapThreshold) != 1 ||
      mallopt(M_TRIM_THRESHOLD, 2 * kMmapThreshold) != 1)
    throw std::runtime_error("mallopt refused the malloc thresholds");
}

std::string fs_type(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return static_cast<int>(std::thread::hardware_concurrency());
  return CPU_COUNT(&set);
}

void print_context(const std::string& workload, uint64_t seed, double seconds,
                   bool traced, const std::string& root) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#if defined(ROCPIO_CHECK)
  const char* check = "ON";
#else
  const char* check = "OFF";
#endif
#if defined(ROCPIO_TELEMETRY_DISABLED)
  const char* telemetry = "OFF";
#else
  const char* telemetry = "ON";
#endif
#if defined(ROCPIO_HAS_URING)
  const char* uring = "ON";
#else
  const char* uring = "OFF";
#endif
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, traced ? 1 : 0);
  std::printf("context: nproc=%d compiler=\"%s\" build=%s ROCPIO_CHECK=%s "
              "ROCPIO_TELEMETRY=%s ROCPIO_URING=%s fs=%s (%s)\n",
              nproc(), compiler, PERFBENCH_BUILD_TYPE, check, telemetry, uring,
              root.c_str(), fs_type(root).c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".bench_run";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--root") a.root = v;
    else return false;
  }
  return argc % 2 == 1 && find_workload(a.workload) != nullptr &&
         a.seconds > 0;
}

int run_main(const Args& args) {
  pin_malloc_thresholds();
  const Workload& wl = *find_workload(args.workload);
  Tally tally;
  const std::string root = args.root + "/" + wl.name;
  fs::remove_all(root);
  fs::create_directories(root);
  print_context(wl.name, args.seed, args.seconds, args.trace, root);

  Snapshot data;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i)
    setups.push_back(set_up(wl, args.seed, root, data, tally));
  const Context untraced{wl, data, root, false, tally};
  const Context traced{wl, data, root, true, tally};
  const double loop_s = wl.loop_share * args.seconds;
  const double commit_s = wl.commit_share * args.seconds;
  const double restart_s = wl.restart_share * args.seconds;
  std::printf("mesh: %zu blocks, %.2f MB per snapshot; interval %.0f ms\n",
              [&] {
                size_t n = 0;
                for (const auto& w : data) n += w.blocks.size();
                return n;
              }(),
              static_cast<double>(payload_bytes(data)) / 1e6,
              wl.interval_s * 1e3);

  // Budgets are per phase and split evenly over the rounds; a zero budget
  // skips the phase.
  auto measure = [](const Context& c, double loop, double commit,
                    double restart) {
    Phases p;
    for (int r = 0; r < kRounds; ++r) {
      p.rochdf.merge(run_writer(c, Service::kRochdf, loop / kRounds, 0));
      p.trochdf.merge(
          run_writer(c, Service::kTRochdf, loop / kRounds, commit / kRounds));
      p.panda.merge(
          run_writer(c, Service::kRocpanda, loop / kRounds, commit / kRounds));
      if (restart <= 0) continue;
      p.panda_restart.merge(
          run_restart(c, Service::kRocpanda, restart / kRounds));
      p.rochdf_restart.merge(
          run_restart(c, Service::kRochdf, restart / kRounds));
    }
    return p;
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Phases p = measure(untraced, loop_s, commit_s, restart_s);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics.push_back({"setup_s", quantile(setups, 0.5), "s"});
    metrics.push_back(
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
    // Printed, not reported: they follow the host's CPU steal more than
    // the code, and spread past their bound across seeds whenever steal
    // shifted during a set of runs (README.md, "Dropped as unsteady").
    print_timing("rochdf.perceived_ms", p.rochdf.perceived_s);
    add_timing(metrics, "trochdf.perceived_ms", p.trochdf.perceived_s);
    print_timing("rocpanda.perceived_ms", p.panda.perceived_s);
    print_timing("trochdf.commit_ms", p.trochdf.commit_s);
    add_timing(metrics, "rocpanda.commit_ms", p.panda.commit_s);
    add_timing(metrics, "restart.rocpanda_ms", p.panda_restart.perceived_s);
    add_timing(metrics, "restart.rochdf_ms", p.rochdf_restart.perceived_s);
  } else {
    // Half the loop time untraced, half traced: the difference between the
    // two perceived medians is the instruments' overhead.
    auto perceived_sum = [](const Phases& p) {
      return quantile(p.rochdf.perceived_s, 0.5) +
             quantile(p.trochdf.perceived_s, 0.5) +
             quantile(p.panda.perceived_s, 0.5);
    };
    const double plain = perceived_sum(measure(untraced, loop_s / 2, 0, 0));
    const Phases p = measure(traced, loop_s / 2, commit_s, restart_s);
    metrics = layer_metrics(p.panda, p.trochdf, p.panda_restart,
                            payload_bytes(data), crc64_gbps(data),
                            100.0 * (perceived_sum(p) - plain) / plain);
  }
  fs::remove_all(root);

  const uint64_t attempted = tally.attempted.load();
  const uint64_t failed = tally.failed.load();
  std::printf("setup_s median of %d: %.4f s\n", kSetupRepeats,
              quantile(setups, 0.5));
  std::printf("failed_op_share = %llu / %llu = %.6f\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              attempted ? static_cast<double>(failed) / attempted : 1.0);
  for (const Metric& m : metrics)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  const bool correct = failed == 0 && attempted > 0;
  print_json(correct, std::max<uint64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bulk|fine|restart --seed N "
                 "--seconds S --trace 0|1 [--root DIR]\n");
    return 2;
  }
  try {
    return perfbench::run_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
