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
/// streams those buffers into the file through the pass-through view (no
/// MeshBlock reconstruction).  Semantics (paper §6.2, tested in
/// tests/rochdf_test.cpp):
///
///  * buffer-reuse safety: callers may mutate their blocks as soon as
///    write_attribute returns;
///  * at most one snapshot in flight: buffering data for snapshot k+1
///    blocks until the worker finished writing snapshot k (a snapshot is
///    the set of write requests sharing one file basename);
///  * sync() blocks until every buffered write reached the file system.

#include <atomic>
#include <deque>
#include <map>
#include <set>

#include "util/thread_annotations.h"

#include "comm/comm.h"
#include "comm/env.h"
#include "roccom/blockio.h"
#include "roccom/io_service.h"
#include "shdf/writer.h"
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
  ~Rochdf() override;

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
  /// One buffered write request (threaded mode).  Blocks are pooled
  /// wire-format snapshots of the panes (WireBlock bytes), written via the
  /// pass-through view instead of reconstructed MeshBlocks.
  struct Job {
    std::string file;  ///< Full path of the per-process file.
    std::string base;  ///< Snapshot base name (trace span detail).
    std::string window;
    double time = 0;
    std::vector<SharedBuffer> blocks;  ///< Marshalled pane snapshots.
    /// Requesting thread's causal context: the worker re-adopts it so the
    /// background write stitches to the perceived write span.
    telemetry::TraceContext ctx;
  };

  /// Opens a per-process file for writing, counting first touches.
  shdf::Writer open_writer(const std::string& path) ROC_EXCLUDES(gate_);
  /// Synchronous write of one request into the per-process file
  /// (append-creates the file; used directly in non-threaded mode and by
  /// the worker in threaded mode).
  void write_now(const std::string& path, const std::string& window,
                 const std::string& attribute, double time,
                 const std::vector<const roccom::Pane*>& panes)
      ROC_EXCLUDES(gate_);
  void write_job(const Job& job) ROC_EXCLUDES(gate_);

  void worker_loop() ROC_EXCLUDES(gate_);

  comm::Comm& comm_;
  comm::Env& env_;
  vfs::FileSystem& fs_;
  Options options_;

  /// Recycles snapshot buffers across write calls (threaded mode).
  /// Internally synchronized: the worker returns buffers from its thread.
  BufferPool pool_;

  // Counters behind stats(): atomic because the worker increments them
  // off the gate while stats() may run on another thread.
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> blocks_written_{0};
  std::atomic<uint64_t> bytes_buffered_{0};
  std::atomic<uint64_t> files_written_{0};
  std::atomic<uint64_t> snapshot_waits_{0};

  // --- worker coordination (threaded mode).  gate_ is the capability the
  // ROC_GUARDED_BY annotations below refer to; gate_storage_ only owns it.
  std::unique_ptr<comm::Gate> gate_storage_;
  comm::Gate* const gate_;
  std::unique_ptr<comm::Worker> worker_;
  std::deque<Job> queue_ ROC_GUARDED_BY(gate_);
  /// Outstanding jobs per file.
  std::map<std::string, int> pending_ ROC_GUARDED_BY(gate_);
  /// File the worker currently has open ("" none).
  std::string open_file_ ROC_GUARDED_BY(gate_);
  /// Basename being buffered by callers.
  std::string current_snapshot_ ROC_GUARDED_BY(gate_);
  /// Truncate-vs-append decision.
  std::set<std::string> started_files_ ROC_GUARDED_BY(gate_);
  bool stop_ ROC_GUARDED_BY(gate_) = false;

  // Worker-owned; accessed only from the writing thread (no guard needed).
  std::unique_ptr<shdf::Writer> writer_;
  std::string open_path_;  ///< Mirror of open_file_ for the worker.
};

}  // namespace roc::rochdf
