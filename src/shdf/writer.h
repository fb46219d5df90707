#pragma once
/// \file writer.h
/// \brief SHDF file writer.
///
/// Datasets are appended one at a time; close() (or destruction) finalizes
/// the directory and superblock.  With DirectoryKind::kIndexed put_dataset
/// writes only the dataset, and the directory and then the superblock are
/// written once, at close (HDF5-like): a file whose writer stops before
/// close() still opens to its last committed state.  With kLinear the
/// directory is re-persisted after every append (HDF4-like in-file
/// bookkeeping cost), and each append overwrites the directory the
/// superblock points to, so a kLinear file is not crash-safe.

#include <memory>
#include <span>
#include <unordered_set>

#include "shdf/format.h"
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

  /// Finalizes on destruction if close() was not called; destruction never
  /// throws (errors during implicit close are logged and swallowed).
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Appends one complete dataset.  `data` must contain def.byte_count()
  /// bytes.  Dataset names must be unique within a file.
  void add_dataset(const DatasetDef& def, const void* data);

  /// Gather append: the payload arrives as a chain of segments (which may
  /// alias wire bytes or caller arrays) and goes to disk as a single
  /// vectored write of header + segments — no intermediate
  /// materialisation.  Segments only need to stay valid for this call.
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

  /// Number of datasets appended so far.
  [[nodiscard]] size_t dataset_count() const { return entries_.size(); }

  /// Writes the directory + final superblock and closes the file.
  void close();

  Writer(Writer&&) = default;
  Writer& operator=(Writer&&) = delete;

 private:
  /// Internal: adopts an already-open file positioned for appending
  /// (used by append()).
  Writer(std::unique_ptr<vfs::File> file, std::string path,
         DirectoryKind kind, std::vector<DirEntry> entries,
         uint64_t append_offset);

  void persist_directory_and_superblock();

  std::unique_ptr<vfs::File> file_;
  std::string path_;
  DirectoryKind kind_;
  std::vector<DirEntry> entries_;
  std::unordered_set<std::string> names_;  ///< Duplicate-name guard.
  uint64_t append_offset_ = kSuperblockBytes;
  bool closed_ = false;
  // Per-append scratch, retained across put_dataset calls so steady-state
  // appends reuse the header/segment storage instead of reallocating.
  ByteWriter hdr_;
  std::vector<ConstBuffer> segs_;
};

}  // namespace roc::shdf
