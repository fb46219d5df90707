#pragma once
/// \file sim_fs.h
/// \brief Shared-file-system model: a vfs::FileSystem whose operations
/// charge virtual time against the platform's file-system parameters.
///
/// Content is held in an in-memory backing store (reads return real,
/// checksummed bytes).  Costs model a shared server-based file system:
///  * every operation occupies one of `write_channels`/`read_channels`
///    server resources (GPFS: 2 write channels; NFS: 1) — concurrent
///    clients queue;
///  * per-op overhead (RPC/seek) plus bytes/bandwidth;
///  * write-op overhead is multiplied by the unimodal contention curve
///    mult(c) = 1 + a·c·exp(-c/c0) in the number of concurrently open
///    writers, reproducing the NFS congestion hump of Table 1 (§7.1);
///  * the caller's CPU is busy for `cpu_fraction` of each operation
///    (client-side copying) and blocked-idle for the rest.

#include <memory>

#include "sim/simulation.h"
#include "vfs/vfs.h"

namespace roc::sim {

/// Cumulative observability counters.
struct SimFsStats {
  uint64_t write_ops = 0;
  uint64_t read_ops = 0;
  uint64_t bytes_written = 0;  ///< Real (unscaled) bytes.
  uint64_t bytes_read = 0;
  uint64_t opens = 0;
  double busy_write_seconds = 0;  ///< Channel occupancy charged to writes.
};

class SimFileSystem final : public vfs::FileSystem {
 public:
  explicit SimFileSystem(Simulation& sim);

  /// Shares `backing` (MemFileSystem handles share one store): lets the
  /// written content outlive this Simulation, e.g. for a separate restart
  /// run (Table 1's restart rows).
  SimFileSystem(Simulation& sim, vfs::MemFileSystem backing);

  std::unique_ptr<vfs::File> open(const std::string& path,
                                  vfs::OpenMode mode) override;
  bool exists(const std::string& path) override;
  void remove(const std::string& path) override;
  std::vector<std::string> list(const std::string& prefix) override;
  /// Table 1 and Fig. 3 are calibrated against HDF4's per-dataset
  /// directory writes, so the simulator keeps them.
  [[nodiscard]] bool models_paper_platform() const override { return true; }

  [[nodiscard]] const SimFsStats& stats() const { return stats_; }

  /// Concurrently open write handles (drives the contention curve).
  [[nodiscard]] int active_writers() const { return active_writers_; }

  // Implementation detail shared with the SimFile handles (they live in
  // sim_fs.cpp's anonymous namespace and cannot be befriended by name).

  /// Reserves the least-busy channel of the given kind for an operation of
  /// duration `cost`; returns the operation's end time.
  double reserve_channel(bool write, double cost);

  /// Makes the calling process experience an operation spanning
  /// [now, end]: CPU-busy for the first cpu_fraction, idle for the rest.
  void experience(double end);

  [[nodiscard]] double write_contention_multiplier() const;

  Simulation& sim_;
  vfs::MemFileSystem backing_;
  int active_writers_ = 0;
  SimFsStats stats_;
};

}  // namespace roc::sim
