#include "rocpanda/client.h"

#include "roccom/block_wire.h"
#include "rocpanda/wire.h"
#include "telemetry/trace.h"
#include "util/log.h"
#include "util/serialize.h"

namespace roc::rocpanda {

using roccom::IoRequest;
using roccom::Pane;
using roccom::Roccom;
using roccom::WireBlock;

RocpandaClient::RocpandaClient(comm::Comm& world, comm::Env& env,
                               const Layout& layout, ClientOptions options)
    : world_(world),
      env_(env),
      layout_(layout),
      options_(options),
      server_(layout.server_of_client(world.rank())) {
  require(!layout_.is_server(world_.rank()),
          "RocpandaClient constructed on a server rank");
  if (options_.client_buffering)
    behind_ = std::make_unique<roccom::WriteBehind>(
        env, "client", "rocpanda client shipper",
        [this](const roccom::WriteBehind::Job& job) { ship(job); });
}

RocpandaClient::~RocpandaClient() {
  try {
    shutdown();
  } catch (const std::exception& e) {
    ROC_ERROR << "Rocpanda client shutdown failed: " << e.what();
  }
}

void RocpandaClient::shutdown() {
  if (shut_down_) return;
  // Ships what is still buffered (a failure is logged, not thrown), so the
  // server always hears that this client is done.
  behind_.reset();
  world_.signal(server_, kTagShutdown);
  shut_down_ = true;
}

// --- client-side buffering (the paper's buffer hierarchy) -------------------

template <typename SendBlocks>
void RocpandaClient::write_request(const IoRequest& req, size_t nblocks,
                                   const telemetry::TraceContext& ctx,
                                   SendBlocks&& send_blocks) {
  // The header carries the causing span's identity (zeros when untraced);
  // the server adopts it for every span the request triggers.
  const WriteHeader h{req.file,  req.window, req.attribute, req.time,
                      static_cast<uint32_t>(nblocks), ctx.trace_id,
                      ctx.span_id};
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: one bounded header per
  // request, not per block.
  world_.send(server_, kTagWriteBegin, h.serialize());
  const uint64_t bytes = send_blocks();
  // The server acks every request (including empty ones) once it holds
  // its blocks.
  (void)await(kTagWriteAck);
  bytes_sent_ += bytes;
  blocks_sent_ += nblocks;
}

ROC_HOT void RocpandaClient::ship(const roccom::WriteBehind::Job& job) {
  // Background in hierarchy mode: this is the cost the local buffer hides
  // from the application thread.  Re-adopting the job's context makes this
  // span a child of the perceived write that queued it (cross-thread edge).
  telemetry::ScopedTraceContext adopt(job.ctx);
  ROC_TRACE_SPAN("client", "ship.background");
  write_request(job.req, job.blocks.size(), job.ctx, [&] {
    for (const auto& bytes : job.blocks)
      world_.send(server_, kTagWriteBlock, bytes);
    return job.bytes;
  });
}

ROC_HOT void RocpandaClient::write_attribute(Roccom& com,
                                             const IoRequest& req) {
  // The whole call is the snapshot's *perceived* cost on this rank (the
  // paper's visible output time); timeline.h groups these by file base.
  ROC_TRACE_SPAN_D("client", "snapshot.perceived", req.file);
  const auto& panes = com.window(req.window).panes();
  const telemetry::TraceContext trace_ctx = telemetry::current_trace_context();
  ++write_calls_;
  // A failure the server reported is rethrown by every later call.  The
  // collectives hear it again from the server; a write in hierarchy mode
  // would not ask it before the next call.
  if (failed_) std::rethrow_exception(failed_);

  if (behind_) {
    // Hierarchy mode: marshal into the local buffer and return; the
    // background worker ships to the server.  Buffer-reuse safety comes
    // from the marshalling copy itself.
    const auto posted =
        behind_->post(req, panes, options_.client_buffer_capacity);
    bytes_buffered_ += posted.bytes;
    backpressure_waits_ += posted.waits;
    return;
  }

  // Visible cost ends when the server confirms everything is buffered.
  ROC_TRACE_SPAN("client", "ship");
  write_request(req, panes.size(), trace_ctx, [&] {
    // One message per block: the granularity at which the server can yield
    // between buffering, writing and probing (paper §6.1).
    uint64_t sent_bytes = 0;
    for (const Pane* p : panes) {
      // The chain's payload segments alias the pane's arrays; sendv gathers
      // them once on their way out (the single marshalling copy), which is
      // what makes immediate buffer reuse by the caller safe.  The scratch
      // chain and the pooled header buffer are recycled across panes.
      WireBlock::serialize_chain_into(*p->block, req.attribute, &pool_,
                                      scratch_chain_);
      env_.charge_local_copy(scratch_chain_.total_bytes());  // marshal copy
      sent_bytes += scratch_chain_.total_bytes();
      world_.sendv(server_, kTagWriteBlock, scratch_chain_);
    }
    return sent_bytes;
  });
}

void RocpandaClient::sync() {
  ROC_TRACE_SPAN("client", "sync");
  (void)collective({Collective::kSync, {}, {}, {}});
  ++sync_calls_;
}

RocpandaClient::Reply RocpandaClient::await(int tag) {
  Reply reply{world_.recv(server_, tag)};
  reply.result = ByteReader(reply.msg.payload.data(), reply.msg.payload.size());
  check_status(reply.result);
  return reply;
}

RocpandaClient::Reply RocpandaClient::collective(
    const CollectiveRequest& req) {
  // Everything locally buffered must reach the server first.  A failed
  // ship does not excuse this client from the collective: its server
  // answers only once all its clients have joined.  A ship fails only on
  // a failed server, which stays failed, so the reply carries the failure.
  std::exception_ptr shipped;
  if (behind_) {
    try {
      behind_->drain();
    } catch (...) {
      shipped = std::current_exception();
    }
  }
  world_.send(server_, kTagCollective, req.serialize());
  try {
    Reply reply = await(kTagCollectiveReply);
    if (shipped) std::rethrow_exception(shipped);
    return reply;
  } catch (...) {
    failed_ = std::current_exception();  // for write_attribute, see there
    throw;
  }
}

ClientStats RocpandaClient::stats() const {
  // Effect counters are read before their causes (blocks before calls):
  // seq_cst increments mean a concurrent reader can never observe an
  // effect whose cause is missing.
  ClientStats s;
  s.blocks_fetched = blocks_fetched_;
  s.bytes_buffered = bytes_buffered_;
  s.backpressure_waits = backpressure_waits_;
  s.blocks_sent = blocks_sent_;
  s.bytes_sent = bytes_sent_;
  s.sync_calls = sync_calls_;
  s.write_calls = write_calls_;
  return s;
}

std::vector<mesh::MeshBlock> RocpandaClient::fetch_internal(
    const std::string& file, const std::string& window,
    const std::vector<int>& pane_ids) {
  ROC_TRACE_SPAN_D("client", "restart.fetch", file);
  // The server announces exactly how many blocks will arrive (from any
  // server), so completion detection is race-free.
  const auto count =
      collective({Collective::kRead, file, window,
                  std::vector<int32_t>(pane_ids.begin(), pane_ids.end())})
          .result.get<uint32_t>();

  // Each block message starts with its server's status: a server that
  // failed while reading sends its failure in place of each block it did
  // not send.  Every message is received before the first failure is
  // rethrown, so none is left behind for a later fetch.
  std::vector<mesh::MeshBlock> blocks;
  blocks.reserve(count);
  std::exception_ptr failure;
  for (uint32_t i = 0; i < count; ++i) {
    auto msg = world_.recv(comm::kAnySource, kTagReadBlock);
    try {
      ByteReader r(msg.payload.data(), msg.payload.size());
      check_status(r);
      blocks.push_back(roccom::decode_block(msg.payload.data() + r.position(),
                                            r.remaining()));
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
  blocks_fetched_ += count;

  roccom::finish_fetch(file, pane_ids, blocks);
  return blocks;
}

std::vector<mesh::MeshBlock> RocpandaClient::fetch_blocks(
    const std::string& file, const std::vector<int>& pane_ids) {
  return fetch_internal(file, /*window=*/"", pane_ids);
}

void RocpandaClient::read_attribute(Roccom& com, const IoRequest& req) {
  const roccom::Window& w = com.window(req.window);
  std::vector<int> ids;
  for (const Pane* p : w.panes()) ids.push_back(p->id);

  const auto blocks = fetch_internal(req.file, req.window, ids);
  for (const auto& b : blocks) {
    const Pane& p = w.pane(b.id());
    mesh::copy_block_attribute(b, *p.block, req.attribute);
  }
}

std::vector<int> RocpandaClient::list_panes(const std::string& file) {
  const auto ids = collective({Collective::kList, file, {}, {}})
                       .result.get_vector<int32_t>();
  return {ids.begin(), ids.end()};
}

}  // namespace roc::rocpanda
