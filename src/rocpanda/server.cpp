#include "rocpanda/server.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <set>

#include "roccom/block_wire.h"
#include "roccom/blockio.h"
#include "rocpanda/wire.h"
#include "shdf/reader.h"
#include "shdf/writer.h"
#include "telemetry/trace.h"
#include "util/check_hooks.h"
#include "util/log.h"
#include "util/serialize.h"

namespace roc::rocpanda {

// ROC_COLD: called once per WriteBegin (never per block); isolates the
// snprintf formatting edge from the hot receive closure.
ROC_COLD std::string server_file(const std::string& prefix,
                                 const std::string& base, int server_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_s%04d.shdf", server_index);
  return prefix + base + buf;
}

namespace {

/// CPU burnt per poll by the spinning idle probe (ablation A4).
constexpr double kIdlePollInterval = 100e-6;

/// Request-wide metadata, built once per WriteBegin and shared by reference
/// by every block of the request: the per-block receive path stays free of
/// string copies (rocanalyze R8, hot-path allocation discipline).
struct RequestMeta {
  WriteHeader header;
  std::string path;  ///< Server file the request's blocks belong in.
  /// Causing client span (from the WriteHeader): re-adopted when a block
  /// is finally written, which may be long after the buffering ack.
  telemetry::TraceContext ctx;
};

/// One buffered (not yet written) block.
struct BufferedItem {
  std::shared_ptr<const RequestMeta> meta;  ///< Shared, not copied.
  /// The received wire bytes, parsed in place: their payloads are written
  /// without reconstructing a MeshBlock.
  roccom::WireBlockView view;
};

/// Per-client state of an in-progress write request.
struct WriteContext {
  std::shared_ptr<const RequestMeta> meta;
  uint32_t remaining = 0;
};

class Server {
 public:
  Server(comm::Comm& world, comm::Comm& server_comm, comm::Env& env,
         vfs::FileSystem& fs, const Layout& layout,
         const ServerOptions& options)
      : world_(world),
        server_comm_(server_comm),
        env_(env),
        fs_(fs),
        layout_(layout),
        opts_(options),
        my_index_(layout.server_index(world.rank())),
        clients_(layout.clients_of_server(world.rank())),
        files_(fs) {}

  ServerStats run() {
    size_t shutdowns_remaining = clients_.size();
    while (shutdowns_remaining > 0 || !buffer_.empty() ||
           !pending_syncs_.empty() || !pending_reads_.empty() ||
           !pending_lists_.empty()) {
      // Deferred collective operations: sync/read/list are collective over
      // this server's clients.  A request from a fast client must neither
      // stall the buffering acks of clients still streaming an earlier
      // collective write, nor start before every client has joined the
      // collective -- so the server acts only once ALL its clients have
      // requested the operation and every write context is closed.
      if (write_ctx_.empty()) {
        if (pending_syncs_.size() == clients_.size()) {
          {
            ROC_TRACE_SPAN("server", "sync.drain");
            drain();
          }
          for (int src : pending_syncs_) world_.signal(src, kTagSyncAck);
          pending_syncs_.clear();
          continue;
        }
        if (pending_reads_.size() == clients_.size()) {
          handle_read();
          pending_reads_.clear();
          continue;
        }
        if (pending_lists_.size() == clients_.size()) {
          handle_list();
          pending_lists_.clear();
          continue;
        }
      }
      comm::Status st;
      // Writing happens while the clients compute: with nothing buffered,
      // or while a collective output is still streaming in (outstanding
      // write contexts), the server waits for requests instead of starting
      // a long disk write that would delay the buffering acks.
      ROC_CHECK_SHARED_READ(&buffer_, "server.buffer");
      const bool receive_priority = buffer_.empty() || !write_ctx_.empty();
      if (receive_priority) {
        // Blocking probe frees the CPU (the paper's OS-offload effect);
        // the polling variant exists for the probe-strategy ablation.
        {
          ROC_TRACE_SPAN("server", "probe.idle");
          if (opts_.blocking_probe_when_idle) {
            st = world_.probe(comm::kAnySource, comm::kAnyTag);
          } else {
            while (!world_.iprobe(comm::kAnySource, comm::kAnyTag, &st))
              env_.compute(kIdlePollInterval);
          }
        }
        if (handle_message(st)) --shutdowns_remaining;
      } else {
        // Data pending, clients computing: write, but yield to any new
        // request between two blocks (paper §6.1).
        if (world_.iprobe(comm::kAnySource, comm::kAnyTag, &st)) {
          if (handle_message(st)) --shutdowns_remaining;
        } else {
          write_one_buffered();
        }
      }
    }
    files_.close();
    stats_.files_created = files_.files_created();
    return stats_;
  }

 private:
  /// Receives and dispatches one message; returns true iff it was a
  /// Shutdown.
  ROC_HOT bool handle_message(const comm::Status& st) {
    switch (st.tag) {
      case kTagWriteBegin: {
        auto msg = world_.recv(st.source, kTagWriteBegin);
        WriteContext ctx;
        // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: one metadata node per
        // request; every block of the request shares it by reference.
        auto meta = std::make_shared<RequestMeta>();
        meta->header =
            WriteHeader::deserialize(msg.payload.data(), msg.payload.size());
        // ROCANALYZE-ALLOW(r8-hotpath-alloc,r10-cold-escape): why: file
        // name formatted once per request, not per block.
        meta->path =
            server_file(opts_.file_prefix, meta->header.file, my_index_);
        meta->ctx = telemetry::TraceContext{meta->header.trace_id,
                                            meta->header.span_id};
        ctx.remaining = meta->header.nblocks;
        ctx.meta = std::move(meta);
        if (ctx.remaining == 0) {
          world_.signal(st.source, kTagWriteAck);
        } else {
          write_ctx_[st.source] = std::move(ctx);
        }
        return false;
      }
      case kTagWriteBlock: {
        auto msg = world_.recv(st.source, kTagWriteBlock);
        auto it = write_ctx_.find(st.source);
        if (it == write_ctx_.end())
          // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: protocol-violation error path only.
          throw CommError("WriteBlock without WriteBegin from rank " +
                          std::to_string(st.source));
        WriteContext& ctx = it->second;
        // Dispatch under the sender's context: buffering/overflow spans
        // become children of the client's ship span (cross-thread edge).
        telemetry::ScopedTraceContext adopt(msg.ctx);
        ++stats_.blocks_received;
        stats_.bytes_received += msg.payload.size();

        BufferedItem item;
        item.meta = ctx.meta;  // shared reference, no string copies
        // Parse the header up front: malformed blocks fail at receive time,
        // and the view is what write_item streams from.
        item.view = roccom::WireBlockView::parse(std::move(msg.payload));

        if (opts_.active_buffering) {
          buffer_item(std::move(item));
        } else {
          write_item(item);
        }
        if (--ctx.remaining == 0) {
          write_ctx_.erase(it);
          world_.signal(st.source, kTagWriteAck);
        }
        return false;
      }
      case kTagSyncReq: {
        (void)world_.recv(st.source, kTagSyncReq);
        ++stats_.sync_requests;
        // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: per-request (not per-block) deferred-collective bookkeeping, bounded by client count.
        pending_syncs_.insert(st.source);  // deferred (see run())
        return false;
      }
      case kTagReadBegin: {
        auto msg = world_.recv(st.source, kTagReadBegin);
        // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: deferred-collective
        // bookkeeping, once per client read request.
        pending_reads_.emplace(st.source,
                               ReadHeader::deserialize(msg.payload.data(),
                                                       msg.payload.size()));
        return false;
      }
      case kTagListReq: {
        auto msg = world_.recv(st.source, kTagListReq);
        ByteReader r(msg.payload.data(), msg.payload.size());
        // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: per-request (not per-block) list bookkeeping, bounded by client count.
        pending_lists_.emplace(st.source, r.get_string());
        return false;
      }
      case kTagShutdown: {
        (void)world_.recv(st.source, kTagShutdown);
        return true;
      }
      default:
        throw CommError("Rocpanda server: unexpected tag " +
                        std::to_string(st.tag) + " from rank " +
                        std::to_string(st.source));
    }
  }

  // --- active buffering ----------------------------------------------------

  ROC_HOT void buffer_item(BufferedItem item) {
    // The buffer table is server-loop-private by design; the annotation
    // lets the checker prove that stays true across schedules.
    ROC_CHECK_SHARED_WRITE(&buffer_, "server.buffer");
    ROC_TRACE_SPAN_D("server", "buffer", item.meta->header.file);
    const uint64_t bytes = item.view.wire_bytes().size();
    // Graceful overflow: write the oldest buffered blocks until the new
    // one fits (paper §6.1).
    while (buffered_bytes_ + bytes > opts_.buffer_capacity &&
           !buffer_.empty()) {
      ROC_TRACE_INSTANT("server", "spill");
      write_one_buffered();
      ++stats_.spills;
    }
    if (bytes > opts_.buffer_capacity) {
      // A single block larger than the whole buffer: write it through.
      ROC_TRACE_INSTANT("server", "spill");
      write_item(item);
      ++stats_.spills;
      return;
    }
    buffered_bytes_ += bytes;
    stats_.buffered_bytes_peak =
        std::max(stats_.buffered_bytes_peak, buffered_bytes_);
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: amortised buffer-table
    // growth; the item holds references, not byte copies.
    buffer_.push_back(std::move(item));
  }

  void write_one_buffered() {
    ROC_CHECK_SHARED_WRITE(&buffer_, "server.buffer");
    BufferedItem item = std::move(buffer_.front());
    buffer_.pop_front();
    buffered_bytes_ -= item.view.wire_bytes().size();
    write_item(item);
  }

  /// Writes every buffered block and commits the open file.
  void drain() {
    ROC_CHECK_SHARED_READ(&buffer_, "server.buffer");
    while (!buffer_.empty()) write_one_buffered();
    files_.close();
  }

  ROC_HOT void write_item(const BufferedItem& item) {
    // This is the snapshot's *hidden* cost when it runs between client
    // requests (active buffering) — and its visible cost when it runs
    // before the ack (write-through ablation); the timeline report tells
    // the two apart by overlap with the clients' perceived spans.
    // Adopting the item's context links this span (however deferred) to
    // the client write request that produced the block.
    const RequestMeta& meta = *item.meta;
    telemetry::ScopedTraceContext adopt(meta.ctx);
    ROC_TRACE_SPAN_D("server", "snapshot.background", meta.header.file);
    shdf::Writer& w = files_.open(meta.path);
    // Pass-through: dataset payloads stream from the retained wire bytes;
    // no MeshBlock, no re-marshalling.  The server-retained scratch makes
    // steady-state writes allocation-free.
    item.view.write_to(w, meta.header.window, meta.header.time,
                       &write_scratch_);
    ++stats_.blocks_written;
  }

  // --- restart (collective read) -------------------------------------------

  /// Round-robin assignment of this snapshot's files to servers
  /// (paper §4.1): works with a different server count than the writing
  /// run, and with snapshots written by EITHER module (Rocpanda "_sNNNN"
  /// server files or Rochdf "_pNNNN" per-process files — the services are
  /// interchangeable, so their checkpoints are too).
  std::vector<std::string> my_files(const std::string& base) const {
    const auto all = roccom::snapshot_files(fs_, opts_.file_prefix, base);
    std::vector<std::string> mine;
    for (size_t i = 0; i < all.size(); ++i)
      if (static_cast<int>(i % static_cast<size_t>(layout_.nservers())) ==
          my_index_)
        mine.push_back(all[i]);
    return mine;
  }

  /// Processes the collective read once every client's ReadHeader is in
  /// pending_reads_.
  void handle_read() {
    ++stats_.read_sessions;
    const ReadHeader& first = pending_reads_.begin()->second;
    ROC_TRACE_SPAN_D("server", "restart.read", first.file);
    // Reads must see every prior write.
    drain();
    std::map<int, std::set<int32_t>> wanted;  // client world rank -> ids
    for (const auto& [client, h] : pending_reads_) {
      require(h.file == first.file && h.window == first.window,
              "clients disagree on the restart request");
      wanted[client] =
          std::set<int32_t>(h.pane_ids.begin(), h.pane_ids.end());
    }

    // Exchange the pane-id -> owner map among servers.
    ByteWriter w;
    w.put<uint32_t>(static_cast<uint32_t>(wanted.size()));
    for (const auto& [client, ids] : wanted) {
      w.put<int32_t>(client);
      w.put<uint32_t>(static_cast<uint32_t>(ids.size()));
      for (int32_t id : ids) w.put<int32_t>(id);
    }
    auto all = server_comm_.allgather(w.take());

    std::map<int32_t, int> owner;  // pane id -> client world rank
    for (const auto& bytes : all) {
      ByteReader r(bytes.data(), bytes.size());
      const auto nclients = r.get<uint32_t>();
      for (uint32_t i = 0; i < nclients; ++i) {
        const int client = r.get<int32_t>();
        const auto nids = r.get<uint32_t>();
        for (uint32_t j = 0; j < nids; ++j) {
          const int32_t id = r.get<int32_t>();
          auto [it, inserted] = owner.emplace(id, client);
          if (!inserted && it->second != client)
            throw CommError("pane " + std::to_string(id) +
                            " requested by two clients");
        }
      }
    }

    // Pass 1: scan my files, plan which blocks go to which client.
    struct PlannedSend {
      std::string path, window;
      int32_t pane_id;
      int owner;
    };
    std::vector<PlannedSend> plan;
    std::map<int, uint32_t> counts;  // client -> blocks it will receive
    for (const auto& path : my_files(first.file)) {
      for (auto& [win, id] : roccom::blocks_in_file(shdf::Reader(fs_, path))) {
        if (!first.window.empty() && win != first.window) continue;
        auto it = owner.find(id);
        if (it == owner.end()) continue;  // written but not requested
        plan.push_back(PlannedSend{path, std::move(win), id, it->second});
        ++counts[it->second];
      }
    }

    // Exchange counts so each server can tell ITS clients the exact number
    // of blocks that will arrive (from any server).
    ByteWriter cw;
    cw.put<uint32_t>(static_cast<uint32_t>(counts.size()));
    for (const auto& [client, n] : counts) {
      cw.put<int32_t>(client);
      cw.put<uint32_t>(n);
    }
    auto all_counts = server_comm_.allgather(cw.take());
    std::map<int, uint32_t> totals;
    for (const auto& bytes : all_counts) {
      ByteReader r(bytes.data(), bytes.size());
      const auto n = r.get<uint32_t>();
      for (uint32_t i = 0; i < n; ++i) {
        const int client = r.get<int32_t>();
        totals[client] += r.get<uint32_t>();
      }
    }
    for (int c : clients_) {
      ByteWriter pw;
      pw.put<uint32_t>(totals.count(c) ? totals[c] : 0);
      world_.send(c, kTagReadPlan, pw.take());
    }

    // Pass 2: read and ship the blocks in the block wire format (sendv
    // gathers the chain once).  The plan is grouped by file, so one Reader
    // serves consecutive entries.
    std::string cur_path;
    std::unique_ptr<shdf::Reader> reader;
    for (const auto& p : plan) {
      if (p.path != cur_path) {
        reader = std::make_unique<shdf::Reader>(fs_, p.path);
        cur_path = p.path;
      }
      const mesh::MeshBlock block =
          roccom::read_block(*reader, p.window, p.pane_id);
      world_.sendv(p.owner, kTagReadBlock,
                   roccom::WireBlock::serialize_chain(block, "all"));
    }
  }

  /// Processes the collective list once every client's request is in
  /// pending_lists_.
  void handle_list() {
    drain();
    const std::string base = pending_lists_.begin()->second;
    for (const auto& [client, b] : pending_lists_)
      require(b == base, "clients disagree on the listed file name");
    // Scan my round-robin share of the files, union ids across servers.
    std::set<int32_t> ids;
    for (const auto& path : my_files(base))
      for (const auto& block : roccom::blocks_in_file(shdf::Reader(fs_, path)))
        ids.insert(block.pane_id);
    ByteWriter w;
    w.put_vector(std::vector<int32_t>(ids.begin(), ids.end()));
    auto all = server_comm_.allgather(w.take());
    std::set<int32_t> merged;
    for (const auto& bytes : all) {
      ByteReader r(bytes.data(), bytes.size());
      for (int32_t id : r.get_vector<int32_t>()) merged.insert(id);
    }
    ByteWriter out;
    out.put_vector(std::vector<int32_t>(merged.begin(), merged.end()));
    const auto reply = out.take();
    for (int c : clients_) world_.send(c, kTagListAck, reply);
  }

  comm::Comm& world_;
  comm::Comm& server_comm_;
  comm::Env& env_;
  vfs::FileSystem& fs_;
  const Layout& layout_;
  ServerOptions opts_;
  int my_index_;
  std::vector<int> clients_;

  std::deque<BufferedItem> buffer_;
  uint64_t buffered_bytes_ = 0;
  std::map<int, WriteContext> write_ctx_;
  std::set<int> pending_syncs_;
  std::map<int, ReadHeader> pending_reads_;
  std::map<int, std::string> pending_lists_;
  /// The server file being written.
  roccom::SnapshotFiles files_;
  /// Per-dataset name/def/chain storage recycled across all blocks the
  /// background writer streams out.
  roccom::WriteScratch write_scratch_;

  /// Returned by run(); only the serve-loop thread touches it.
  ServerStats stats_;
};

}  // namespace

ServerStats run_server(comm::Comm& world, comm::Comm& server_comm,
                       comm::Env& env, vfs::FileSystem& fs,
                       const Layout& layout, const ServerOptions& options) {
  Server s(world, server_comm, env, fs, layout, options);
  return s.run();
}

}  // namespace roc::rocpanda
