#pragma once
/// \file reader.h
/// \brief SHDF file reader.
///
/// The reader honours the file's directory engine: a kLinear file is looked
/// up by scanning the directory in insertion order (HDF4-like, O(n) per
/// lookup), a kIndexed file by binary search.  Payload integrity is verified
/// against the stored CRC-64 on every read.

#include <memory>
#include <optional>

#include "shdf/format.h"
#include "vfs/vfs.h"

namespace roc::shdf {

class Reader {
 public:
  /// Opens `path` and loads the directory + all dataset headers.
  Reader(vfs::FileSystem& fs, const std::string& path);

  [[nodiscard]] size_t dataset_count() const { return infos_.size(); }
  [[nodiscard]] DirectoryKind directory_kind() const { return kind_; }
  /// Size of the file when it was opened.
  [[nodiscard]] uint64_t file_size() const { return file_size_; }

  /// Dataset names in directory order.
  [[nodiscard]] std::vector<std::string> dataset_names() const;

  /// Names that start with `prefix` (SHDF's group convention), directory
  /// order.
  [[nodiscard]] std::vector<std::string> dataset_names_with_prefix(
      const std::string& prefix) const;

  [[nodiscard]] bool has_dataset(const std::string& name) const;

  /// Metadata of a dataset; throws FormatError if absent.
  [[nodiscard]] const DatasetInfo& info(const std::string& name) const;
  [[nodiscard]] const DatasetInfo& info(size_t index) const;

  /// Reads and checksum-verifies the payload bytes.
  [[nodiscard]] std::vector<unsigned char> read_raw(
      const std::string& name) const;

  /// Reads the payload of `i`, one of this reader's infos, straight into
  /// `dst` (`i.data_bytes` of room) and verifies its checksum there.
  /// Throws FormatError if the payload lies past the end of the file or
  /// fails its checksum.
  void read_payload(const DatasetInfo& i, void* dst) const {
    check_extent(i, file_size_);
    read_into(i, dst);
  }

  /// Typed read; throws FormatError if the stored element type mismatches T.
  /// The payload is read straight into the returned vector, with no staging
  /// buffer, and checksum-verified there.
  template <typename T>
  [[nodiscard]] std::vector<T> read(const std::string& name) const {
    const DatasetInfo& i = info(name);
    if (i.def.type != TypeTag<T>::value)
      throw FormatError("dataset '" + name + "' has element type " +
                        std::string(type_name(i.def.type)) + ", not " +
                        std::string(type_name(TypeTag<T>::value)));
    if (i.data_bytes % sizeof(T) != 0)
      throw FormatError("dataset '" + name + "' size " +
                        std::to_string(i.data_bytes) +
                        " is not a whole number of elements");
    check_extent(i, file_size_);
    std::vector<T> out(static_cast<size_t>(i.data_bytes / sizeof(T)));
    read_into(i, out.data());
    return out;
  }

  /// Attribute lookup on a dataset; nullopt if the attribute is absent.
  [[nodiscard]] std::optional<AttrValue> attribute(
      const std::string& dataset, const std::string& attr) const;

 private:
  /// Index of `name` in infos_, or SIZE_MAX.  Linear scan or binary search
  /// depending on the directory kind.
  [[nodiscard]] size_t find(const std::string& name) const;

  /// Throws FormatError unless `i`'s payload lies inside a file of
  /// `file_size` bytes.
  void check_extent(const DatasetInfo& i, uint64_t file_size) const;

  /// Reads `i`'s payload straight from the file into `dst` (`data_bytes`
  /// of room, extent already checked) and verifies its checksum there.
  void read_into(const DatasetInfo& i, void* dst) const;

  mutable std::unique_ptr<vfs::File> file_;
  std::string path_;
  DirectoryKind kind_ = DirectoryKind::kIndexed;
  uint64_t file_size_ = 0;  ///< At open; payload extents are checked on it.
  std::vector<DatasetInfo> infos_;  ///< Directory order.
};

}  // namespace roc::shdf
