#pragma once
/// \file client.h
/// \brief The Rocpanda client library: the IoService compute processes use.
///
/// write_attribute marshals each local pane into a WireBlock, ships the
/// blocks to this client's server, and returns when the server acknowledges
/// that everything is buffered — so the visible output cost is the transfer
/// time, not the disk time (paper §6.1), while the blocking-interface
/// semantics hold: the caller may reuse its buffers immediately.
///
/// Restart (read_attribute / fetch_blocks) is collective: the servers
/// gather every client's block list, scan the snapshot's files round-robin,
/// and route each block to the client that requested it — which is how
/// restarting with a different number of servers (or clients) than the
/// writing run works (paper §4.1).

#include <atomic>
#include <memory>

#include "comm/comm.h"
#include "comm/env.h"
#include "roccom/io_service.h"
#include "roccom/write_behind.h"
#include "rocpanda/layout.h"
#include "rocpanda/wire.h"

namespace roc::rocpanda {

/// Client-side options.
struct ClientOptions {
  /// Enables the client side of the paper's active-buffering *hierarchy*
  /// ([13], §6.1: "a buffer hierarchy on both the clients and servers"):
  /// write_attribute copies the marshalled blocks into a local buffer and
  /// returns immediately; a background worker ships them to the server.
  /// The visible cost drops to the local copy (T-Rochdf-like) while
  /// keeping the few-files property of collective I/O.
  bool client_buffering = false;

  /// Local buffer capacity in bytes; when exceeded, write_attribute blocks
  /// until the worker has shipped enough data (back-pressure, no loss).
  uint64_t client_buffer_capacity = UINT64_MAX;
};

/// Client-side counters, as of one stats() call.
struct ClientStats {
  uint64_t write_calls = 0;
  uint64_t blocks_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t sync_calls = 0;
  uint64_t blocks_fetched = 0;
  uint64_t bytes_buffered = 0;     ///< Client-side buffered (hierarchy mode).
  uint64_t backpressure_waits = 0; ///< write_attribute stalls on capacity.
};

class RocpandaClient final : public roccom::IoService {
 public:
  /// `world` is the full communicator (this rank must be a client in
  /// `layout`).  Both must outlive the object.
  RocpandaClient(comm::Comm& world, comm::Env& env, const Layout& layout,
                 ClientOptions options = {});
  ~RocpandaClient() override;

  RocpandaClient(const RocpandaClient&) = delete;
  RocpandaClient& operator=(const RocpandaClient&) = delete;

  void write_attribute(roccom::Roccom& com,
                       const roccom::IoRequest& req) override;
  void read_attribute(roccom::Roccom& com,
                      const roccom::IoRequest& req) override;
  void sync() override;
  [[nodiscard]] std::vector<mesh::MeshBlock> fetch_blocks(
      const std::string& file, const std::vector<int>& pane_ids) override;
  [[nodiscard]] std::vector<int> list_panes(const std::string& file) override;
  [[nodiscard]] std::string name() const override { return "Rocpanda"; }

  /// Tells this client's server that this client is done.  Collective in
  /// effect: a server exits once all of its clients shut down.  Called by
  /// the destructor if not called explicitly.
  void shutdown();

  /// Snapshot of the counters.  Safe to call concurrently with writes from
  /// the background worker.
  [[nodiscard]] ClientStats stats() const;

 private:
  [[nodiscard]] std::vector<mesh::MeshBlock> fetch_internal(
      const std::string& file, const std::string& window,
      const std::vector<int>& pane_ids);

  /// Sends one write request: its header, the blocks `send_blocks` sends
  /// (returning their bytes), then awaits the server's ack.
  template <typename SendBlocks>
  void write_request(const roccom::IoRequest& req, size_t nblocks,
                     const telemetry::TraceContext& ctx,
                     SendBlocks&& send_blocks);
  /// Ships one buffered request (hierarchy mode, on the worker).
  void ship(const roccom::WriteBehind::Job& job);

  /// A reply from the server; `result` reads what follows its status.
  struct Reply {
    comm::Message msg;
    ByteReader result{nullptr, 0};
  };
  /// Receives the server's reply with `tag`; throws the failure it reports.
  Reply await(int tag);
  /// Joins the collective `req` once this client's buffered writes are
  /// shipped, and awaits the server's reply to it.
  Reply collective(const CollectiveRequest& req);

  comm::Comm& world_;
  comm::Env& env_;
  Layout layout_;
  ClientOptions options_;
  int server_;  ///< World rank of this client's server.
  bool shut_down_ = false;
  /// The first failure a collective reply reported (calling thread only).
  std::exception_ptr failed_;

  /// Recycles the direct mode's marshalling buffers.  Internally
  /// synchronized: buffers return from whichever thread drops them last.
  BufferPool pool_;
  /// Direct-mode marshalling scratch, refilled per pane by the thread that
  /// calls write_attribute (the chain is consumed before the call returns).
  BufferChain scratch_chain_;

  // Counters behind stats(): atomic because the background worker
  // increments them while stats() may run on another thread.
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> blocks_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> sync_calls_{0};
  std::atomic<uint64_t> blocks_fetched_{0};
  std::atomic<uint64_t> bytes_buffered_{0};
  std::atomic<uint64_t> backpressure_waits_{0};

  /// The client-side buffer and its shipping worker (hierarchy mode);
  /// null otherwise.  Declared last: it runs ship() until it is destroyed.
  std::unique_ptr<roccom::WriteBehind> behind_;
};

}  // namespace roc::rocpanda
