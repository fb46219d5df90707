#pragma once
/// \file rochdf.h
/// \brief Rochdf: server-less individual I/O (paper §4.2), and its
/// multi-threaded variant T-Rochdf with background writing (paper §6.2).
///
/// Each compute processor writes its own data blocks into its own SHDF
/// file, `<prefix><file>_p<rank>.shdf`.  No communication happens during
/// I/O.  In threaded mode (T-Rochdf) write_attribute marshals the blocks
/// into pooled wire-format buffers (one copy, recycled storage) and
/// returns immediately; one persistent background worker per process
/// (roccom::WriteBehind) streams those buffers into the file through the
/// pass-through view (no MeshBlock reconstruction).  Semantics (paper
/// §6.2, tested in tests/rochdf_test.cpp):
///
///  * buffer-reuse safety: callers may mutate their blocks as soon as
///    write_attribute returns;
///  * at most one snapshot in flight: buffering data for snapshot k+1
///    blocks until the worker finished writing snapshot k (a snapshot is
///    the set of write requests sharing one file basename);
///  * sync() blocks until every buffered write reached the file system;
///  * a background write that fails is rethrown by the next sync() or
///    write_attribute(), and by every one after it.

#include <atomic>
#include <memory>

#include "comm/comm.h"
#include "comm/env.h"
#include "roccom/blockio.h"
#include "roccom/io_service.h"
#include "roccom/write_behind.h"
#include "vfs/vfs.h"

namespace roc::rochdf {

struct Options {
  /// false: baseline Rochdf (synchronous writes).  true: T-Rochdf.
  bool threaded = false;
  /// Prepended to every file name (e.g. an output directory).
  std::string file_prefix;
};

/// Cumulative counters (diagnostics and tests), as of one stats() call.
struct Stats {
  uint64_t write_calls = 0;
  uint64_t blocks_written = 0;
  uint64_t bytes_buffered = 0;   ///< Wire bytes buffered by T-Rochdf.
  uint64_t files_written = 0;
  uint64_t snapshot_waits = 0;   ///< Times the main thread had to wait for
                                 ///< the previous snapshot (T-Rochdf).
};

class Rochdf final : public roccom::IoService {
 public:
  /// `comm`, `env` and `fs` must outlive the service.  `comm` is only used
  /// for the process rank (file naming); Rochdf never communicates.
  Rochdf(comm::Comm& comm, comm::Env& env, vfs::FileSystem& fs,
         Options options);

  Rochdf(const Rochdf&) = delete;
  Rochdf& operator=(const Rochdf&) = delete;

  void write_attribute(roccom::Roccom& com,
                       const roccom::IoRequest& req) override;
  void read_attribute(roccom::Roccom& com,
                      const roccom::IoRequest& req) override;
  void sync() override;
  [[nodiscard]] std::vector<mesh::MeshBlock> fetch_blocks(
      const std::string& file, const std::vector<int>& pane_ids) override;
  [[nodiscard]] std::vector<int> list_panes(const std::string& file) override;
  [[nodiscard]] std::string name() const override {
    return options_.threaded ? "T-Rochdf" : "Rochdf";
  }

  /// Counter snapshot, safe against the concurrent background writer.
  [[nodiscard]] Stats stats() const;

  /// File written by rank `rank` for basename `base`.
  [[nodiscard]] static std::string proc_file(const std::string& prefix,
                                             const std::string& base,
                                             int rank);

 private:
  /// T-Rochdf's background half: one buffered request into its file.
  void write_job(const roccom::WriteBehind::Job& job);

  comm::Comm& comm_;
  vfs::FileSystem& fs_;
  Options options_;

  // Counters behind stats(): atomic because the worker increments them
  // while stats() may run on another thread.
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> blocks_written_{0};
  std::atomic<uint64_t> bytes_buffered_{0};
  std::atomic<uint64_t> snapshot_waits_{0};

  /// The open per-process file; the worker's in T-Rochdf.
  roccom::SnapshotFiles files_;
  /// Basename being buffered (T-Rochdf); calling thread only.
  std::string current_snapshot_;
  /// T-Rochdf's worker; null for Rochdf.  Declared last: it runs
  /// write_job until it is destroyed.
  std::unique_ptr<roccom::WriteBehind> behind_;
};

}  // namespace roc::rochdf
