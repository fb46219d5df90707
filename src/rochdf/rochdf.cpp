#include "rochdf/rochdf.h"

#include <cstdio>
#include <set>

#include "roccom/block_wire.h"
#include "shdf/reader.h"
#include "telemetry/trace.h"

namespace roc::rochdf {

using roccom::IoRequest;
using roccom::Pane;
using roccom::Roccom;

Rochdf::Rochdf(comm::Comm& comm, comm::Env& env, vfs::FileSystem& fs,
               Options options)
    : comm_(comm), fs_(fs), options_(std::move(options)), files_(fs) {
  if (options_.threaded)
    behind_ = std::make_unique<roccom::WriteBehind>(
        env, "rochdf", "t-rochdf writer",
        [this](const roccom::WriteBehind::Job& job) { write_job(job); },
        // Queue drained: commit the file so sync() and the next
        // snapshot's wait can complete.
        [this] { files_.close(); });
}

std::string Rochdf::proc_file(const std::string& prefix,
                              const std::string& base, int rank) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_p%04d.shdf", rank);
  return prefix + base + buf;
}

void Rochdf::write_job(const roccom::WriteBehind::Job& job) {
  // The background half of T-Rochdf: everything here is I/O cost the
  // application thread never sees (unless it collides with the
  // one-snapshot-in-flight wait).  Re-adopting the job's context makes
  // this span a child of the perceived write that buffered it.
  telemetry::ScopedTraceContext adopt(job.ctx);
  ROC_TRACE_SPAN_D("rochdf", "snapshot.background", job.req.file);
  shdf::Writer& w = files_.open(
      proc_file(options_.file_prefix, job.req.file, comm_.rank()));
  for (const auto& b : job.blocks) {
    // Pass-through: dataset payloads stream straight from the buffered
    // wire bytes; no MeshBlock is reconstructed.
    roccom::WireBlockView::parse(b).write_to(w, job.req.window, job.req.time);
    ++blocks_written_;
  }
}

void Rochdf::write_attribute(Roccom& com, const IoRequest& req) {
  // The whole call is this rank's *perceived* snapshot cost: for Rochdf
  // the actual disk write, for T-Rochdf the marshal plus any
  // block-on-previous-snapshot wait (timeline.h separates the two).
  ROC_TRACE_SPAN_D("rochdf", "snapshot.perceived", req.file);
  const auto& panes = com.window(req.window).panes();

  ++write_calls_;

  if (!behind_) {
    // Synchronous write on the caller's thread: background-tagged so the
    // timeline still attributes raw vfs cost to the snapshot, but fully
    // inside the perceived span — nothing is hidden.
    ROC_TRACE_SPAN_D("rochdf", "snapshot.background", req.file);
    shdf::Writer& w =
        files_.open(proc_file(options_.file_prefix, req.file, comm_.rank()));
    for (const Pane* p : panes) {
      roccom::write_block(w, req.window, *p->block, req.attribute, req.time);
      ++blocks_written_;
    }
    files_.close();
    return;
  }

  // T-Rochdf: at most one snapshot in flight (paper §6.2).  Every queued
  // job belongs to current_snapshot_, so a new basename waits until the
  // worker has written and closed all of them.
  if (current_snapshot_ != req.file && !current_snapshot_.empty()) {
    ROC_TRACE_SPAN_D("rochdf", "snapshot.wait_previous", req.file);
    if (behind_->drain()) ++snapshot_waits_;
  }
  current_snapshot_ = req.file;

  // Buffer: marshal each pane into a pooled wire-format buffer (the one
  // copy) so the caller can reuse its blocks immediately.
  bytes_buffered_ += behind_->post(req, panes).bytes;
}

void Rochdf::sync() {
  if (!behind_) return;
  ROC_TRACE_SPAN("rochdf", "sync");
  behind_->drain();
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
  s.files_written = files_.files_created();
  s.snapshot_waits = snapshot_waits_;
  s.write_calls = write_calls_;
  return s;
}

}  // namespace roc::rochdf
