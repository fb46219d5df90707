#include "rocpanda/server.h"

#include <algorithm>
#include <cstdio>
#include <cstddef>
#include <deque>
#include <exception>
#include <map>
#include <set>
#include <span>

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
  WriteHeader header;  ///< Carries the causing client span's ids.
  std::string path;    ///< Server file the request's blocks belong in.
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
    while (shutdowns_remaining > 0 || !buffer_.empty() || !pending_.empty()) {
      // Deferred collectives (sync, read, list): a request from a fast
      // client must neither stall the buffering acks of clients still
      // streaming an earlier collective write, nor start before every
      // client has joined -- so the server acts only once ALL its clients
      // have sent their request and every write context is closed.
      if (write_ctx_.empty() && pending_.size() == clients_.size()) {
        serve_collective();
        pending_.clear();
        continue;
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
          guarded([&] { write_one_buffered(); });
        }
      }
    }
    guarded([&] { files_.close(); });
    stats_.files_created = files_.files_created();
    if (failure_) std::rethrow_exception(failure_);
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
        ctx.remaining = meta->header.nblocks;
        ctx.meta = std::move(meta);
        if (ctx.remaining == 0) {
          reply(st.source, kTagWriteAck);
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
        // and the view is what write_item streams from.  A failed server
        // still receives every block, so each request ends in its ack.
        guarded([&] {
          item.view = roccom::WireBlockView::parse(std::move(msg.payload));
          if (opts_.active_buffering) {
            buffer_item(std::move(item));
          } else {
            write_item(item);
          }
        });
        if (--ctx.remaining == 0) {
          // Write-through: the request's blocks reach the file before its
          // ack, so the ack reports a failed write.
          if (!opts_.active_buffering) guarded([&] { files_.write_queued(); });
          write_ctx_.erase(it);
          reply(st.source, kTagWriteAck);
        }
        return false;
      }
      case kTagCollective: {
        auto msg = world_.recv(st.source, kTagCollective);
        // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: deferred-collective
        // bookkeeping, once per client request, bounded by client count.
        const auto& req = pending_[st.source] = CollectiveRequest::deserialize(
            msg.payload.data(), msg.payload.size());
        if (req.kind == Collective::kSync) ++stats_.sync_requests;
        return false;  // deferred (see run())
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

  // --- failure, replies and collectives -----------------------------------

  /// Runs `work` (the server's file writes and reads) unless the server
  /// has failed.  The first error `work` throws is kept for the rest of
  /// the run: from then on the server writes and reads nothing, answers
  /// every reply with that error, and run() rethrows it at the end.
  template <typename Work>
  void guarded(Work&& work) {
    if (failure_) return;
    try {
      work();
    } catch (const std::exception& e) {
      fail(e);
    }
  }

  ROC_COLD void fail(const std::exception& e) {
    failure_ = std::current_exception();
    status_ = SharedBuffer::adopt(failure_status(e));
    // The open file is dropped uncommitted and keeps its last committed
    // state; the Server's destructor must not close it.
    files_.abandon();
    ROC_CHECK_SHARED_WRITE(&buffer_, "server.buffer");
    buffer_.clear();
    buffered_bytes_ = 0;
  }

  /// Sends `client` the reply with `tag`: the server's status, then
  /// `result` unless the server has failed.  Every reply goes out here.
  void reply(int client, int tag, std::span<const unsigned char> result = {}) {
    reply_chain_.clear();
    reply_chain_.append(status_);
    if (!failure_) reply_chain_.append_borrowed(result.data(), result.size());
    world_.sendv(client, tag, reply_chain_);
  }

  /// Allgathers `body` among the servers behind this server's status.  A
  /// failure any server reports becomes this server's too, so every
  /// server answers its clients with it.  Returns every server's body, or
  /// nothing once this server has failed.
  std::vector<std::vector<unsigned char>> exchange(
      const std::vector<unsigned char>& body) {
    ByteWriter w;
    w.put_bytes(status_.data(), status_.size());
    if (!failure_) w.put_bytes(body.data(), body.size());
    auto all = server_comm_.allgather(w.take());
    for (auto& bytes : all) {
      ByteReader r(bytes.data(), bytes.size());
      guarded([&] { check_status(r); });
      bytes.erase(bytes.begin(),
                  bytes.begin() + static_cast<std::ptrdiff_t>(r.position()));
    }
    if (failure_) all.clear();
    return all;
  }

  /// Serves the collective every client has joined.  Clients that
  /// disagree on it are all answered with the error.
  void serve_collective() {
    const CollectiveRequest& first = pending_.begin()->second;
    guarded([&] {
      for (const auto& [client, req] : pending_)
        require(req.kind == first.kind && req.file == first.file &&
                    req.window == first.window,
                "clients disagree on the collective request");
    });
    switch (first.kind) {
      case Collective::kSync: {
        ROC_TRACE_SPAN("server", "sync.drain");
        guarded([&] { drain(); });
        for (int c : clients_) reply(c, kTagCollectiveReply);
        return;
      }
      case Collective::kRead:
        return handle_read(first);
      case Collective::kList:
        return handle_list(first);
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
    // Adopting the causing client span links this span (however deferred,
    // long after the buffering ack) to the request that produced the block.
    const RequestMeta& meta = *item.meta;
    telemetry::ScopedTraceContext adopt(
        {meta.header.trace_id, meta.header.span_id});
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

  /// The collective read: every server exchanges its clients' requested
  /// pane ids, plans which of its files' blocks go where, and ships them.
  void handle_read(const CollectiveRequest& first) {
    ++stats_.read_sessions;
    ROC_TRACE_SPAN_D("server", "restart.read", first.file);
    guarded([&] { drain(); });  // Reads must see every prior write.

    // Exchange the client -> wanted pane ids map among servers.
    ByteWriter w;
    w.put<uint32_t>(static_cast<uint32_t>(pending_.size()));
    for (const auto& [client, req] : pending_) {
      w.put<int32_t>(client);
      w.put_vector(req.pane_ids);
    }
    const auto all = exchange(w.take());

    // Pass 1: scan my files, plan which blocks go to which client.
    struct PlannedSend {
      std::string path, window;
      int32_t pane_id;
      int owner;
    };
    std::vector<PlannedSend> plan;
    // Blocks each world rank will receive from this server.
    std::vector<uint32_t> counts(static_cast<size_t>(world_.size()));
    guarded([&] {
      std::map<int32_t, int> owner;  // pane id -> client world rank
      for (const auto& bytes : all) {
        ByteReader r(bytes.data(), bytes.size());
        for (auto n = r.get<uint32_t>(); n > 0; --n) {
          const int client = r.get<int32_t>();
          for (const int32_t id : r.get_vector<int32_t>()) {
            auto [it, inserted] = owner.emplace(id, client);
            if (!inserted && it->second != client)
              throw CommError("pane " + std::to_string(id) +
                              " requested by two clients");
          }
        }
      }
      for (const auto& path : my_files(first.file)) {
        const shdf::Reader reader(fs_, path);
        for (auto& [win, id] : roccom::blocks_in_file(reader)) {
          if (!first.window.empty() && win != first.window) continue;
          auto it = owner.find(id);
          if (it == owner.end()) continue;  // written but not requested
          plan.push_back(PlannedSend{path, std::move(win), id, it->second});
          ++counts[static_cast<size_t>(it->second)];
        }
      }
    });

    // Exchange counts so each server can tell ITS clients the exact number
    // of blocks that will arrive (from any server).
    ByteWriter cw;
    cw.put_vector(counts);
    std::vector<uint32_t> totals(counts.size());
    for (const auto& bytes : exchange(cw.take())) {
      ByteReader r(bytes.data(), bytes.size());
      const auto theirs = r.get_vector<uint32_t>();
      for (size_t i = 0; i < theirs.size(); ++i) totals[i] += theirs[i];
    }
    for (int c : clients_) {
      ByteWriter pw;
      pw.put<uint32_t>(totals[static_cast<size_t>(c)]);
      reply(c, kTagCollectiveReply, pw.take());
    }

    // Pass 2: ship each block as one buffer that already is its message:
    // the status byte, then the wire block read from the file straight into
    // place (read_wire_block), sent by reference.  A server that fails here
    // sends its failure in place of each block it has not sent, so every
    // client still receives the count it was told.  After a failure in pass
    // 1 the count replies carried it, and no block follows.  The plan is
    // grouped by file, so one Reader serves consecutive entries.
    if (failure_) return;
    std::string cur_path;
    std::unique_ptr<shdf::Reader> reader;
    for (const auto& p : plan) {
      SharedBuffer block;
      guarded([&] {
        if (p.path != cur_path) {
          reader = std::make_unique<shdf::Reader>(fs_, p.path);
          cur_path = p.path;
        }
        block = roccom::read_wire_block(*reader, p.window, p.pane_id,
                                        status_.span(), read_pool_,
                                        read_scratch_);
      });
      world_.send(p.owner, kTagReadBlock,
                  failure_ ? status_ : std::move(block));
    }
  }

  /// The collective list: the union of the pane ids in every server's
  /// share of the snapshot's files.
  void handle_list(const CollectiveRequest& first) {
    std::set<int32_t> ids;
    guarded([&] {
      drain();
      for (const auto& path : my_files(first.file))
        for (const auto& b : roccom::blocks_in_file(shdf::Reader(fs_, path)))
          ids.insert(b.pane_id);
    });
    ByteWriter w;
    w.put_vector(std::vector<int32_t>(ids.begin(), ids.end()));
    std::set<int32_t> merged;
    for (const auto& bytes : exchange(w.take())) {
      ByteReader r(bytes.data(), bytes.size());
      for (int32_t id : r.get_vector<int32_t>()) merged.insert(id);
    }
    ByteWriter out;
    out.put_vector(std::vector<int32_t>(merged.begin(), merged.end()));
    const auto result = out.take();
    for (int c : clients_) reply(c, kTagCollectiveReply, result);
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
  /// The collective each client has joined, by client world rank.
  std::map<int, CollectiveRequest> pending_;
  /// The server file being written.
  roccom::SnapshotFiles files_;
  /// Per-dataset name/def/chain storage recycled across all blocks the
  /// background writer streams out.
  roccom::WriteScratch write_scratch_;
  /// Restart: recycled message storage and encoder scratch.
  BufferPool read_pool_;
  roccom::ReadScratch read_scratch_;

  /// The first error (null while none); status_ leads every reply.
  std::exception_ptr failure_;
  SharedBuffer status_ = SharedBuffer::copy_of(&kStatusOk, 1);
  BufferChain reply_chain_;  ///< Recycled by reply().

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
