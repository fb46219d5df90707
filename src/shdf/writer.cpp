#include "shdf/writer.h"

#include <algorithm>
#include <climits>

#include "util/crc64.h"
#include "util/log.h"

namespace roc::shdf {

namespace {

// The queue is written once it holds this many bytes.  The gather copies
// each payload soon after put_dataset read it for its CRC, so the bound
// keeps the queue within a core's L2 (2 MiB on the 4-vCPU Xeon VM the
// perfbench numbers come from): an 8 MiB bound made `bulk`'s 47 MB
// snapshots commit 40-120% slower, because the copy then missed cache.
// 1 MiB still writes a `fine` snapshot's ~1000 small datasets in a few
// gathers instead of one write each.
constexpr uint64_t kFlushBytes = uint64_t{1} << 20;
// One writev takes at most IOV_MAX segments.
constexpr size_t kMaxSegments = IOV_MAX;
// Queued headers live in an arena reserved at open; the queue is written
// once half of it is used, so a header up to the other half never grows
// it.  Dataset headers are a few hundred bytes.
constexpr size_t kArenaBytes = 128 << 10;

}  // namespace

// Construction/open is once per file: cold for the allocation analyzer.
ROC_COLD Writer::Writer(vfs::FileSystem& fs, const std::string& path,
                        DirectoryKind kind)
    : file_(fs.open(path, vfs::OpenMode::kTruncate)),
      path_(path),
      kind_(kind) {
  reserve_queue();
  // Reserve the superblock slot; it is rewritten with real values later.
  ByteWriter w;
  Superblock sb;
  sb.directory_kind = kind_;
  write_superblock(w, sb);
  file_->write(w.data(), w.size());
}

ROC_COLD Writer::Writer(std::unique_ptr<vfs::File> file, std::string path,
                        DirectoryKind kind, std::vector<DirEntry> entries,
                        uint64_t append_offset)
    : file_(std::move(file)),
      path_(std::move(path)),
      kind_(kind),
      entries_(std::move(entries)),
      append_offset_(append_offset),
      written_offset_(append_offset) {
  reserve_queue();
  for (const auto& e : entries_) names_.insert(e.name);
}

ROC_COLD void Writer::reserve_queue() {
  queue_.resize(kMaxSegments);
  iov_.resize(kMaxSegments);
  arena_.reserve(kArenaBytes);
}

ROC_COLD Writer Writer::append(vfs::FileSystem& fs, const std::string& path) {
  auto file = fs.open(path, vfs::OpenMode::kReadWrite);
  Index index = read_index(*file, path);
  // Keep entries in append (offset) order so the kLinear reader still scans
  // insertion order; persist re-sorts for kIndexed.
  std::sort(index.entries.begin(), index.entries.end(),
            [](const DirEntry& a, const DirEntry& b) {
              return a.header_offset < b.header_offset;
            });

  // New datasets go after the old directory, which the superblock keeps
  // pointing to until close() has written the new one: a writer that stops
  // before then leaves the file as it was.  The old directory becomes dead
  // space.
  const Superblock& sb = index.superblock;
  return Writer(std::move(file), path, sb.directory_kind,
                std::move(index.entries),
                sb.directory_offset + sb.directory_bytes);
}

Writer::~Writer() {
  if (closed_) return;
  try {
    close();
  } catch (const std::exception& e) {
    ROC_ERROR << "shdf::Writer(" << path_ << ") close failed: " << e.what();
  }
}

template <typename Io>
void Writer::guarded(Io&& io) {
  try {
    io();
  } catch (...) {
    failure_ = std::current_exception();
    drop();
    throw;
  }
}

void Writer::drop() noexcept {
  file_.reset();
  clear_queue();
}

void Writer::clear_queue() noexcept {
  for (size_t i = 0; i < queued_; ++i) queue_[i].payload = SharedBuffer();
  queued_ = 0;
  arena_.clear();
}

void Writer::abandon() noexcept {
  drop();
  closed_ = true;
}

void Writer::add_dataset(const DatasetDef& def, const void* data) {
  BufferChain chain;
  chain.append_borrowed(data, static_cast<size_t>(def.byte_count()));
  put_dataset(def, chain);
}

void Writer::put_dataset(const DatasetDef& def, const BufferChain& payload) {
  if (failure_) std::rethrow_exception(failure_);
  require(!closed_, "add_dataset after close on ", path_);
  require(!def.name.empty(), "dataset name must not be empty");
  const uint64_t bytes = def.byte_count();
  require(payload.total_bytes() == bytes,
          "payload byte count mismatch for dataset ", def.name);
  bool fresh_name;
  {
    // Retained-until-close directory metadata: one set node per dataset is
    // the format's bookkeeping cost, not per-byte hot-path traffic.
    ROC_ALLOC_EXEMPT("why: duplicate-name guard, retained until close; one "
                     "node per dataset");
    fresh_name = names_.insert(def.name).second;
  }
  require(fresh_name, "duplicate dataset name: ", def.name);

  Crc64 crc;
  bool borrowed = false;
  for (const BufferChain::Segment& s : payload.segments()) {
    crc.update(s.view.data, s.view.size);
    borrowed = borrowed || s.borrowed();
  }

  const size_t header_at = arena_.size();
  write_dataset_header(arena_, def, crc.value());
  const size_t header_bytes = arena_.size() - header_at;
  enqueue(Pending{SharedBuffer(), header_at, header_bytes});
  {
    // Retained-until-close directory metadata (entry name copy + table
    // growth).
    ROC_ALLOC_EXEMPT("why: one directory entry per dataset, retained until "
                     "close; the format's metadata cost");
    entries_.push_back(DirEntry{def.name, append_offset_});
  }
  append_offset_ += header_bytes + bytes;

  if (borrowed || kind_ == DirectoryKind::kLinear) {
    // The payload goes out with the queue now: borrowed bytes are only
    // valid for this call, and kLinear writes every dataset at once.
    guarded([&] { write_out(&payload); });
  } else {
    for (const BufferChain::Segment& s : payload.segments())
      if (!s.owner.empty()) enqueue(Pending{s.owner, 0, s.owner.size()});
    if (append_offset_ - written_offset_ >= kFlushBytes ||
        arena_.size() >= kArenaBytes / 2)
      guarded([&] { write_out(); });
  }

  // HDF4-like mode keeps the on-disk bookkeeping current after every
  // append, which is exactly why its cost grows with the dataset count.
  // The next dataset overwrites the directory just written before the
  // superblock moves off it: kLinear is a cost model, not crash-safe.
  if (kind_ == DirectoryKind::kLinear)
    guarded([&] { persist_directory_and_superblock(); });
}

void Writer::enqueue(Pending p) {
  queue_[queued_++] = std::move(p);
  if (queued_ == kMaxSegments) guarded([&] { write_out(); });
}

void Writer::write_queued() {
  if (failure_) std::rethrow_exception(failure_);
  require(!closed_, "write_queued after close on ", path_);
  if (queued_ > 0) guarded([&] { write_out(); });
}

void Writer::write_out(const BufferChain* tail) {
  // One seek + writev from the first unwritten byte; a tail that does not
  // fit in the gather list after the queue takes more than one writev.
  file_->seek(written_offset_);
  size_t n = 0;
  uint64_t bytes = 0;
  auto add = [&](ConstBuffer segment) {
    if (n == iov_.size()) {
      file_->writev({iov_.data(), n});
      n = 0;
    }
    iov_[n++] = segment;
    bytes += segment.size;
  };
  for (size_t i = 0; i < queued_; ++i) {
    const Pending& p = queue_[i];
    add(p.payload.empty() ? ConstBuffer(arena_.data() + p.arena_offset, p.bytes)
                          : ConstBuffer(p.payload));
  }
  if (tail)
    for (const BufferChain::Segment& s : tail->segments()) add(s.view);
  file_->writev({iov_.data(), n});
  written_offset_ += bytes;
  clear_queue();
}

// ROC_COLD: directory persistence is the cold bookkeeping edge — once per
// close in kIndexed mode; per-append only in the HDF4-like kLinear model
// (the simulator's engine, and A3's), whose bookkeeping cost is the point
// being measured.
ROC_COLD void Writer::persist_directory_and_superblock() {
  ROC_ALLOC_EXEMPT("why: the directory, encoded once per commit from the "
                   "retained entries; the format's metadata cost");
  std::vector<DirEntry> dir = entries_;
  if (kind_ == DirectoryKind::kIndexed) {
    std::sort(dir.begin(), dir.end(), [](const DirEntry& a, const DirEntry& b) {
      return a.name < b.name;
    });
  }
  ByteWriter w;
  write_directory(w, dir);

  Superblock sb;
  sb.directory_kind = kind_;
  sb.directory_offset = append_offset_;
  sb.directory_bytes = w.size();
  sb.dataset_count = entries_.size();

  file_->seek(append_offset_);
  file_->write(w.data(), w.size());

  ByteWriter sw;
  write_superblock(sw, sb);
  file_->seek(0);
  file_->write(sw.data(), sw.size());
}

void Writer::close() {
  if (failure_) {
    closed_ = true;
    std::rethrow_exception(failure_);
  }
  if (closed_) return;
  closed_ = true;  // a close that throws has reported its error
  if (!file_) return;  // moved-from shell
  guarded([&] {
    if (queued_ > 0) write_out();
    persist_directory_and_superblock();
    file_->flush();
  });
  file_.reset();
}

}  // namespace roc::shdf
