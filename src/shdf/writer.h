#pragma once
/// \file writer.h
/// \brief SHDF file writer.
///
/// Datasets are appended one at a time; close() (or destruction) finalizes
/// the directory and superblock.  With DirectoryKind::kIndexed put_dataset
/// writes only the dataset, and the directory and then the superblock are
/// written once, at close (HDF5-like): a file whose writer stops before
/// close() still opens to its last committed state.  A kIndexed writer
/// queues datasets whose payloads it owns and writes the queue in one
/// gather once it holds about 1 MiB or IOV_MAX segments, and at close().
/// With kLinear every dataset is written at once and the directory is
/// re-persisted after every append (HDF4-like in-file bookkeeping cost);
/// each append overwrites the directory the superblock points to, so a
/// kLinear file is not crash-safe.
///
/// A write that fails drops the file as abandon() does: a file never
/// commits a directory after one of its writes failed.

#include <exception>
#include <memory>
#include <span>
#include <unordered_set>

#include "shdf/format.h"
#include "util/buffer.h"
#include "vfs/vfs.h"

namespace roc::shdf {

class Writer {
 public:
  /// Creates (truncates) `path` on `fs`.  The FileSystem must outlive the
  /// Writer.
  Writer(vfs::FileSystem& fs, const std::string& path,
         DirectoryKind kind = DirectoryKind::kIndexed);

  /// Re-opens an existing SHDF file for appending further datasets.  New
  /// datasets start after the old directory, which stays in place as dead
  /// space; close() writes a fresh directory and only then the superblock.
  /// The directory kind is taken from the file.
  static Writer append(vfs::FileSystem& fs, const std::string& path);

  /// Finalizes on destruction if neither close() nor abandon() was called;
  /// destruction never throws (an error of the implicit close, or the
  /// write error it rethrows, is logged and swallowed).
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Appends one complete dataset.  `data` must contain def.byte_count()
  /// bytes.  Dataset names must be unique within a file.
  void add_dataset(const DatasetDef& def, const void* data);

  /// Gather append: the payload arrives as a chain of segments and goes to
  /// disk in a vectored write of header + segments, with no intermediate
  /// copy.  The CRC, the header and the directory entry are made here.
  ///  * Owned segments (SharedBuffer) may be queued: the writer keeps a
  ///    reference, and the bytes reach the file in a later gather with the
  ///    datasets queued around them (kIndexed only).
  ///  * If any segment is borrowed, the queue and this dataset are written
  ///    before the call returns, so borrowed segments only need to stay
  ///    valid for this call.
  /// After a write throws, put_dataset, write_queued and close rethrow its
  /// error.
  void put_dataset(const DatasetDef& def, const BufferChain& payload);

  /// Typed convenience: dims default to {v.size()} when def.dims is empty.
  template <typename T>
  void add(const std::string& name, const std::vector<T>& v,
           std::vector<Attribute> attrs = {},
           std::vector<uint64_t> dims = {}) {
    DatasetDef def;
    def.name = name;
    def.type = TypeTag<T>::value;
    def.dims = dims.empty() ? std::vector<uint64_t>{v.size()} : std::move(dims);
    def.attributes = std::move(attrs);
    require(def.element_count() == v.size(),
            "dims do not match element count for dataset " + name);
    add_dataset(def, v.data());
  }

  /// Writes the queued datasets now, without committing them (the
  /// Rocpanda server's write-through ack).
  void write_queued();

  /// Number of datasets appended so far.
  [[nodiscard]] size_t dataset_count() const { return entries_.size(); }

  /// Writes the queue, the directory and the final superblock, and closes
  /// the file.  After a failed write it rethrows that first error instead,
  /// as put_dataset does.
  void close();

  /// Drops the file without writing the queue, a directory or a
  /// superblock: the file keeps its last committed state (a new kIndexed
  /// file, none), and queued payloads are released.  The writer is closed
  /// afterwards: close() does nothing, or rethrows an earlier write error.
  void abandon() noexcept;

  Writer(Writer&&) = default;
  Writer& operator=(Writer&&) = delete;

 private:
  /// Internal: adopts an already-open file positioned for appending
  /// (used by append()).
  Writer(std::unique_ptr<vfs::File> file, std::string path,
         DirectoryKind kind, std::vector<DirEntry> entries,
         uint64_t append_offset);

  /// One queued segment: a dataset header in arena_, or an owned payload.
  struct Pending {
    SharedBuffer payload;     ///< Empty for a header.
    size_t arena_offset = 0;  ///< Where a header starts in arena_.
    size_t bytes = 0;
  };

  /// Sizes the queue and its scratch once per file, so appends never grow
  /// them.
  void reserve_queue();
  void enqueue(Pending p);
  /// Writes the queue, then every segment of `tail` if given, at the
  /// first unwritten offset, and empties the queue.
  void write_out(const BufferChain* tail = nullptr);
  void persist_directory_and_superblock();
  /// Runs `io` (file writes); if it throws, keeps the error, drops the
  /// file and rethrows.
  template <typename Io>
  void guarded(Io&& io);
  /// Drops the file and the queue.
  void drop() noexcept;
  /// Releases the queued payloads and empties the queue and the arena.
  void clear_queue() noexcept;

  std::unique_ptr<vfs::File> file_;
  std::string path_;
  DirectoryKind kind_;
  std::vector<DirEntry> entries_;
  std::unordered_set<std::string> names_;  ///< Duplicate-name guard.
  /// End of the last dataset appended (queued or written).
  uint64_t append_offset_ = kSuperblockBytes;
  /// End of the bytes written; the queue goes out from here.
  uint64_t written_offset_ = kSuperblockBytes;
  bool closed_ = false;
  std::exception_ptr failure_;  ///< First failed write; null while none.
  // The queue: fixed-size slots, the headers' bytes and the gather list
  // handed to writev, all sized by reserve_queue() and reused.
  std::vector<Pending> queue_;
  size_t queued_ = 0;  ///< Slots of queue_ in use.
  ByteWriter arena_;
  std::vector<ConstBuffer> iov_;
};

}  // namespace roc::shdf
