#pragma once
/// \file server.h
/// \brief The Rocpanda I/O server routine (paper §4.1, §6.1).
///
/// Dedicated I/O processors enter run_server() after initialization and
/// serve their assigned clients until every one of them sends Shutdown.
/// The server implements *active buffering*: during a collective output it
/// buffers incoming blocks instead of writing them, acknowledges the
/// client as soon as its data is buffered (that ack bounds the client's
/// visible I/O cost), and performs the actual file writes while the
/// clients compute — checking for new client requests between any two
/// block writes so that writing always yields to request handling.  If
/// the buffer would overflow, the oldest buffered blocks are written out
/// to make room (graceful spill, never data loss).
///
/// When there is nothing to write the server uses the *blocking* probe so
/// its CPU goes idle and the operating system can use it — the mechanism
/// behind the paper's SMP observation (Fig 3(b)).  With data pending it
/// uses the non-blocking probe between writes.

#include <cstdint>
#include <string>

#include "comm/comm.h"
#include "comm/env.h"
#include "rocpanda/layout.h"
#include "vfs/vfs.h"

namespace roc::rocpanda {

struct ServerOptions {
  /// false disables active buffering (ablation A1): blocks are written
  /// synchronously before the client is acknowledged.
  bool active_buffering = true;

  /// Buffer capacity in payload bytes; overflow triggers spilling.
  uint64_t buffer_capacity = UINT64_MAX;

  /// false (ablation A4): when idle the server spins on the non-blocking
  /// probe, burning 100 µs of CPU per poll, instead of blocking and
  /// freeing the CPU.
  bool blocking_probe_when_idle = true;

  /// Prepended to every file name (e.g. an output directory).
  std::string file_prefix;
};

struct ServerStats {
  uint64_t blocks_received = 0;
  uint64_t blocks_written = 0;
  uint64_t bytes_received = 0;
  uint64_t buffered_bytes_peak = 0;
  uint64_t spills = 0;         ///< Blocks written to make room (overflow).
  uint64_t files_created = 0;
  uint64_t sync_requests = 0;
  uint64_t read_sessions = 0;
};

/// Runs the server routine on this process.  `world` is the full
/// communicator (clients + servers), `server_comm` the servers' own
/// communicator (restart coordination).  Returns once every client of this
/// server has sent Shutdown and all buffered data is on stable storage.
ServerStats run_server(comm::Comm& world, comm::Comm& server_comm,
                       comm::Env& env, vfs::FileSystem& fs,
                       const Layout& layout, const ServerOptions& options);

/// File written by server `server_index` for snapshot basename `base`.
[[nodiscard]] std::string server_file(const std::string& prefix,
                                      const std::string& base,
                                      int server_index);

}  // namespace roc::rocpanda
