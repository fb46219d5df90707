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
      server_(layout.server_of_client(world.rank())),
      gate_storage_(env.make_gate()),
      gate_(gate_storage_.get()) {
  gate_->set_name("rocpanda-client-gate");
  require(!layout_.is_server(world_.rank()),
          "RocpandaClient constructed on a server rank");
  if (options_.client_buffering)
    worker_ = env_.spawn_worker([this] { worker_loop(); });
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
  if (worker_) {
    drain_local();
    gate_->lock();
    stop_ = true;
    gate_->notify_all();
    gate_->unlock();
    worker_->join();
    worker_.reset();
  }
  world_.signal(server_, kTagShutdown);
  shut_down_ = true;
}

// --- client-side buffering (the paper's buffer hierarchy) -------------------

ROC_HOT void RocpandaClient::ship(const Job& job) {
  // Background in hierarchy mode: this is the cost the local buffer hides
  // from the application thread.  Re-adopting the job's context makes this
  // span a child of the perceived write that queued it (cross-thread edge).
  telemetry::ScopedTraceContext adopt(job.ctx);
  ROC_TRACE_SPAN("client", "ship.background");
  world_.send(server_, kTagWriteBegin, job.header);
  for (const auto& bytes : job.blocks)
    world_.send(server_, kTagWriteBlock, bytes);
  // The server acks every request (including empty ones).
  (void)world_.recv(server_, kTagWriteAck);
}

void RocpandaClient::worker_loop() {
  gate_->lock();
  for (;;) {
    if (!queue_.empty()) {
      Job job = std::move(queue_.front());
      queue_.pop_front();
      shipping_ = true;
      gate_->unlock();
      ship(job);
      bytes_sent_ += job.bytes;
      blocks_sent_ += job.blocks.size();
      gate_->lock();
      shipping_ = false;
      queued_bytes_ -= job.bytes;
      gate_->notify_all();
      continue;
    }
    if (stop_) break;
    gate_->wait();
  }
  gate_->unlock();
}

void RocpandaClient::drain_local() {
  if (!worker_) return;
  comm::GateLock lock(*gate_);
  while (!queue_.empty() || shipping_) gate_->wait();
}

ROC_HOT void RocpandaClient::write_attribute(Roccom& com,
                                             const IoRequest& req) {
  // The whole call is the snapshot's *perceived* cost on this rank (the
  // paper's visible output time); timeline.h groups these by file base.
  ROC_TRACE_SPAN_D("client", "snapshot.perceived", req.file);
  const roccom::Window& w = com.window(req.window);
  const auto& panes = w.panes();

  WriteHeader h;
  h.file = req.file;
  h.window = req.window;
  h.attribute = req.attribute;
  h.time = req.time;
  h.nblocks = static_cast<uint32_t>(panes.size());
  // Stamp the perceived span's identity into the header: the server adopts
  // it for every span this request triggers (zeros when untraced).
  const telemetry::TraceContext trace_ctx = telemetry::current_trace_context();
  h.trace_id = trace_ctx.trace_id;
  h.span_id = trace_ctx.span_id;
  ++write_calls_;

  if (worker_) {
    // Hierarchy mode: marshal into the local buffer and return; the
    // background worker ships to the server.  Buffer-reuse safety comes
    // from the marshalling copy itself.
    Job job;
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: one bounded header per
    // request, not per block.
    job.header = h.serialize();
    job.ctx = trace_ctx;
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: one reservation per request,
    // amortised over its blocks.
    job.blocks.reserve(panes.size());
    {
      ROC_TRACE_SPAN("client", "marshal");
      for (const Pane* p : panes) {
        // Marshal into the reusable scratch chain, then gather into one
        // pooled buffer: the single marshalling copy.  Everything
        // downstream (queue, send, server buffer) shares references.
        WireBlock::serialize_chain_into(*p->block, req.attribute, &pool_,
                                        scratch_chain_);
        SharedBuffer bytes = pool_.gather(scratch_chain_);
        env_.charge_local_copy(bytes.size());
        job.bytes += bytes.size();
        // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: reserved above; growth
        // is a reference push, amortised per request.
        job.blocks.push_back(std::move(bytes));
      }
    }
    // The counters are atomics, updated off the gate.
    bytes_buffered_ += job.bytes;
    uint64_t waits = 0;
    {
      comm::GateLock lock(*gate_);
      while (queued_bytes_ + job.bytes > options_.client_buffer_capacity &&
             (!queue_.empty() || shipping_)) {
        ROC_TRACE_SPAN("client", "backpressure");
        ++waits;
        gate_->wait();
      }
      queued_bytes_ += job.bytes;
      // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: amortised job-queue
      // growth; payloads are moved references.
      queue_.push_back(std::move(job));
      gate_->notify_all();
    }
    backpressure_waits_ += waits;
    return;
  }

  {
    ROC_TRACE_SPAN("client", "ship");
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: one bounded header per
    // request, not per block.
    world_.send(server_, kTagWriteBegin, h.serialize());

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

    // Visible cost ends when the server confirms everything is buffered.
    (void)world_.recv(server_, kTagWriteAck);
    bytes_sent_ += sent_bytes;
    blocks_sent_ += panes.size();
  }
}

void RocpandaClient::sync() {
  ROC_TRACE_SPAN("client", "sync");
  drain_local();  // everything locally buffered must reach the server first
  world_.signal(server_, kTagSyncReq);
  (void)world_.recv(server_, kTagSyncAck);
  ++sync_calls_;
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
  drain_local();  // reads must follow every locally buffered write
  ReadHeader h;
  h.file = file;
  h.window = window;
  h.pane_ids.assign(pane_ids.begin(), pane_ids.end());
  world_.send(server_, kTagReadBegin, h.serialize());

  // The server announces exactly how many blocks will arrive (from any
  // server), so completion detection is race-free.
  auto plan = world_.recv(server_, kTagReadPlan);
  ByteReader pr(plan.payload.data(), plan.payload.size());
  const auto count = pr.get<uint32_t>();

  std::vector<mesh::MeshBlock> blocks;
  blocks.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    auto msg = world_.recv(comm::kAnySource, kTagReadBlock);
    blocks.push_back(
        roccom::decode_block(msg.payload.data(), msg.payload.size()));
  }
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
  drain_local();
  ByteWriter w;
  w.put_string(file);
  world_.send(server_, kTagListReq, w.take());
  auto msg = world_.recv(server_, kTagListAck);
  ByteReader r(msg.payload.data(), msg.payload.size());
  const auto ids = r.get_vector<int32_t>();
  return {ids.begin(), ids.end()};
}

}  // namespace roc::rocpanda
