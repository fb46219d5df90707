#include "shdf/writer.h"

#include <algorithm>

#include "util/crc64.h"
#include "util/log.h"

namespace roc::shdf {

// Construction/open is once per file: cold for the allocation analyzer.
ROC_COLD Writer::Writer(vfs::FileSystem& fs, const std::string& path,
                        DirectoryKind kind)
    : file_(fs.open(path, vfs::OpenMode::kTruncate)),
      path_(path),
      kind_(kind) {
  // Reserve the superblock slot; it is rewritten with real values later.
  ByteWriter w;
  Superblock sb;
  sb.directory_kind = kind_;
  write_superblock(w, sb);
  file_->write(w.data(), w.size());
}

Writer::Writer(std::unique_ptr<vfs::File> file, std::string path,
               DirectoryKind kind, std::vector<DirEntry> entries,
               uint64_t append_offset)
    : file_(std::move(file)),
      path_(std::move(path)),
      kind_(kind),
      entries_(std::move(entries)),
      append_offset_(append_offset) {
  for (const auto& e : entries_) names_.insert(e.name);
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

void Writer::add_dataset(const DatasetDef& def, const void* data) {
  BufferChain chain;
  chain.append_borrowed(data, static_cast<size_t>(def.byte_count()));
  put_dataset(def, chain);
}

void Writer::put_dataset(const DatasetDef& def, const BufferChain& payload) {
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
  for (const BufferChain::Segment& s : payload.segments())
    crc.update(s.view.data, s.view.size);

  // One vectored write of header + payload segments: the payload goes to
  // disk straight from the caller's (or the wire's) bytes.
  hdr_.clear();  // retained scratch: header bytes reuse prior capacity
  write_dataset_header(hdr_, def, crc.value());
  segs_.clear();
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: retained-capacity segment
  // scratch; steady state reuses the vector's storage.
  segs_.reserve(1 + payload.segment_count());
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: reserved above.
  segs_.emplace_back(hdr_.data(), hdr_.size());
  for (const BufferChain::Segment& s : payload.segments())
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: reserved above.
    segs_.push_back(s.view);
  file_->seek(append_offset_);
  file_->writev(segs_);

  {
    // Retained-until-close directory metadata (entry name copy + table
    // growth).
    ROC_ALLOC_EXEMPT("why: one directory entry per dataset, retained until "
                     "close; the format's metadata cost");
    entries_.push_back(DirEntry{def.name, append_offset_});
  }
  append_offset_ += hdr_.size() + bytes;

  // HDF4-like mode keeps the on-disk bookkeeping current after every
  // append, which is exactly why its cost grows with the dataset count.
  // The next dataset overwrites the directory just written before the
  // superblock moves off it: kLinear is a cost model, not crash-safe.
  if (kind_ == DirectoryKind::kLinear) persist_directory_and_superblock();
}

// ROC_COLD: directory persistence is the cold bookkeeping edge — once per
// close in kIndexed mode; per-append only in the HDF4-like kLinear model
// (the simulator's engine, and A3's), whose bookkeeping cost is the point
// being measured.
ROC_COLD void Writer::persist_directory_and_superblock() {
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
  if (closed_) return;
  if (!file_) {  // moved-from shell
    closed_ = true;
    return;
  }
  persist_directory_and_superblock();
  file_->flush();
  file_.reset();
  closed_ = true;
}

}  // namespace roc::shdf
