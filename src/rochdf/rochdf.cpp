#include "rochdf/rochdf.h"

#include <cstdio>
#include <set>

#include "roccom/block_wire.h"
#include "shdf/reader.h"
#include "telemetry/trace.h"
#include "util/check_hooks.h"
#include "util/log.h"

namespace roc::rochdf {

using roccom::IoRequest;
using roccom::Pane;
using roccom::Roccom;

Rochdf::Rochdf(comm::Comm& comm, comm::Env& env, vfs::FileSystem& fs,
               Options options)
    : comm_(comm),
      env_(env),
      fs_(fs),
      options_(std::move(options)),
      gate_storage_(env.make_gate()),
      gate_(gate_storage_.get()) {
  gate_->set_name("rochdf-gate");
  if (options_.threaded)
    worker_ = env_.spawn_worker([this] { worker_loop(); });
}

Rochdf::~Rochdf() {
  if (worker_) {
    gate_->lock();
    ROC_CHECK_SHARED_WRITE(&stop_, "rochdf.stop");
    stop_ = true;
    gate_->notify_all();
    gate_->unlock();
    worker_->join();
  }
}

std::string Rochdf::proc_file(const std::string& prefix,
                              const std::string& base, int rank) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_p%04d.shdf", rank);
  return prefix + base + buf;
}

shdf::Writer Rochdf::open_writer(const std::string& path) {
  // First touch of a file in this run truncates; later requests for the
  // same snapshot append.
  bool first;
  {
    comm::GateLock lock(*gate_);
    ROC_CHECK_SHARED_WRITE(&started_files_, "rochdf.started_files");
    first = started_files_.insert(path).second;
  }
  if (first) ++files_written_;
  return roccom::open_snapshot_file(fs_, path, first);
}

void Rochdf::write_now(const std::string& path, const std::string& window,
                       const std::string& attribute, double time,
                       const std::vector<const Pane*>& panes) {
  shdf::Writer w = open_writer(path);
  for (const Pane* p : panes) {
    roccom::write_block(w, window, *p->block, attribute, time);
    ++blocks_written_;
  }
  w.close();
}

void Rochdf::write_job(const Job& job) {
  // The background half of T-Rochdf: everything here is I/O cost the
  // application thread never sees (unless it collides with the
  // one-snapshot-in-flight wait).  Re-adopting the job's context makes
  // this span a child of the perceived write that buffered it.
  telemetry::ScopedTraceContext adopt(job.ctx);
  ROC_TRACE_SPAN_D("rochdf", "snapshot.background", job.base);
  if (writer_ && open_path_ != job.file) {
    writer_->close();
    writer_.reset();
  }
  if (!writer_) {
    writer_ = std::make_unique<shdf::Writer>(open_writer(job.file));
    open_path_ = job.file;
    comm::GateLock lock(*gate_);
    ROC_CHECK_SHARED_WRITE(&open_file_, "rochdf.open_file");
    open_file_ = job.file;
  }
  for (const auto& b : job.blocks) {
    // Pass-through: dataset payloads stream straight from the buffered
    // wire bytes; no MeshBlock is reconstructed.
    roccom::WireBlockView::parse(b).write_to(*writer_, job.window, job.time);
    ++blocks_written_;
  }
}

void Rochdf::worker_loop() {
  telemetry::set_thread_name("t-rochdf writer");
  gate_->lock();
  for (;;) {
    ROC_CHECK_SHARED_READ(&queue_, "rochdf.queue");
    if (!queue_.empty()) {
      ROC_CHECK_SHARED_WRITE(&queue_, "rochdf.queue");
      Job job = std::move(queue_.front());
      queue_.pop_front();
      gate_->unlock();
      write_job(job);
      gate_->lock();
      ROC_CHECK_SHARED_WRITE(&pending_, "rochdf.pending");
      auto it = pending_.find(job.file);
      if (--it->second == 0) pending_.erase(it);
      gate_->notify_all();
      continue;
    }
    if (writer_) {
      // Queue drained: finalize the open file so sync()/snapshot waits can
      // complete.
      gate_->unlock();
      writer_->close();
      writer_.reset();
      open_path_.clear();
      gate_->lock();
      ROC_CHECK_SHARED_WRITE(&open_file_, "rochdf.open_file");
      open_file_.clear();
      gate_->notify_all();
      continue;
    }
    ROC_CHECK_SHARED_READ(&stop_, "rochdf.stop");
    if (stop_) break;
    gate_->wait();
  }
  gate_->unlock();
}

void Rochdf::write_attribute(Roccom& com, const IoRequest& req) {
  // The whole call is this rank's *perceived* snapshot cost: for Rochdf
  // the actual disk write, for T-Rochdf the marshal plus any
  // block-on-previous-snapshot wait (timeline.h separates the two).
  ROC_TRACE_SPAN_D("rochdf", "snapshot.perceived", req.file);
  const roccom::Window& w = com.window(req.window);
  const auto& panes = w.panes();
  const std::string path =
      proc_file(options_.file_prefix, req.file, comm_.rank());

  ++write_calls_;

  if (!options_.threaded) {
    // Synchronous write on the caller's thread: background-tagged so the
    // timeline still attributes raw vfs cost to the snapshot, but fully
    // inside the perceived span — nothing is hidden.
    ROC_TRACE_SPAN_D("rochdf", "snapshot.background", req.file);
    write_now(path, req.window, req.attribute, req.time, panes);
    return;
  }

  // T-Rochdf: at most one snapshot in flight (paper §6.2).
  bool waited = false;
  {
    comm::GateLock lock(*gate_);
    ROC_CHECK_SHARED_READ(&current_snapshot_, "rochdf.current_snapshot");
    if (current_snapshot_ != req.file && !current_snapshot_.empty()) {
      const std::string prev =
          proc_file(options_.file_prefix, current_snapshot_, comm_.rank());
      {
        ROC_TRACE_SPAN_D("rochdf", "snapshot.wait_previous", req.file);
        ROC_CHECK_SHARED_READ(&pending_, "rochdf.pending");
        ROC_CHECK_SHARED_READ(&open_file_, "rochdf.open_file");
        while (pending_.count(prev) > 0 || open_file_ == prev) {
          waited = true;
          gate_->wait();
        }
      }
    }
    ROC_CHECK_SHARED_WRITE(&current_snapshot_, "rochdf.current_snapshot");
    current_snapshot_ = req.file;
  }
  if (waited) ++snapshot_waits_;  // atomic: counted off the gate

  // Buffer: marshal each pane into a pooled wire-format buffer (the one
  // copy) so the caller can reuse its blocks immediately.
  Job job;
  job.file = path;
  job.base = req.file;
  job.window = req.window;
  job.time = req.time;
  job.ctx = telemetry::current_trace_context();
  job.blocks.reserve(panes.size());
  uint64_t bytes = 0;
  {
    ROC_TRACE_SPAN("rochdf", "marshal");
    for (const Pane* p : panes) {
      SharedBuffer wire = pool_.gather(
          roccom::WireBlock::serialize_chain(*p->block, req.attribute));
      bytes += wire.size();
      job.blocks.push_back(std::move(wire));
    }
    env_.charge_local_copy(bytes);
  }

  bytes_buffered_ += bytes;
  comm::GateLock lock(*gate_);
  ROC_CHECK_SHARED_WRITE(&queue_, "rochdf.queue");
  queue_.push_back(std::move(job));
  ROC_CHECK_SHARED_WRITE(&pending_, "rochdf.pending");
  ++pending_[path];
  gate_->notify_all();
}

void Rochdf::sync() {
  if (!options_.threaded) return;
  ROC_TRACE_SPAN("rochdf", "sync");
  comm::GateLock lock(*gate_);
  ROC_CHECK_SHARED_READ(&queue_, "rochdf.queue");
  ROC_CHECK_SHARED_READ(&pending_, "rochdf.pending");
  ROC_CHECK_SHARED_READ(&open_file_, "rochdf.open_file");
  while (!queue_.empty() || !pending_.empty() || !open_file_.empty())
    gate_->wait();
}

void Rochdf::read_attribute(Roccom& com, const IoRequest& req) {
  sync();
  const roccom::Window& w = com.window(req.window);
  const std::string path =
      proc_file(options_.file_prefix, req.file, comm_.rank());
  shdf::Reader r(fs_, path);
  for (const Pane* p : w.panes())
    roccom::read_into_block(r, req.window, req.attribute, *p->block);
}

std::vector<mesh::MeshBlock> Rochdf::fetch_blocks(
    const std::string& file, const std::vector<int>& pane_ids) {
  sync();
  const std::set<int> wanted(pane_ids.begin(), pane_ids.end());
  std::vector<mesh::MeshBlock> out;

  // Every file of this snapshot, whichever service wrote it and however
  // many processes did; blocks may live in any window.
  for (const auto& path :
       roccom::snapshot_files(fs_, options_.file_prefix, file)) {
    shdf::Reader r(fs_, path);
    for (const auto& block : roccom::blocks_in_file(r))
      if (wanted.count(block.pane_id) != 0)
        out.push_back(roccom::read_block(r, block.window, block.pane_id));
  }
  roccom::finish_fetch(file, pane_ids, out);
  return out;
}

std::vector<int> Rochdf::list_panes(const std::string& file) {
  sync();
  std::set<int> ids;
  for (const auto& path :
       roccom::snapshot_files(fs_, options_.file_prefix, file))
    for (const auto& block : roccom::blocks_in_file(shdf::Reader(fs_, path)))
      ids.insert(block.pane_id);
  return {ids.begin(), ids.end()};
}

Stats Rochdf::stats() const {
  // Effect counters are read before their causes (blocks before calls):
  // seq_cst increments mean a concurrent reader can never observe an
  // effect whose cause is missing (race_test's ordering invariant).
  Stats s;
  s.blocks_written = blocks_written_;
  s.bytes_buffered = bytes_buffered_;
  s.files_written = files_written_;
  s.snapshot_waits = snapshot_waits_;
  s.write_calls = write_calls_;
  return s;
}

}  // namespace roc::rochdf
