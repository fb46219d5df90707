#pragma once
/// \file format.h
/// \brief On-disk layout constants and record (de)serialization for SHDF.
///
/// File layout:
///
///   [ superblock : 48 bytes, fixed ]
///   [ dataset record 0 ] [ dataset record 1 ] ...
///   [ directory ]
///
/// A dataset record is [header bytes][payload bytes]; the header carries the
/// full DatasetDef, payload size and CRC-64.  It also keeps a codec byte and
/// a stored-size field, the format's filter slot: payloads are stored as
/// they are, so the byte is always 0 and the stored size equals the payload
/// size, and the reader rejects anything else.  The directory is a list of
/// (name, header offset) entries; its own offset/length live in the
/// superblock, which is rewritten when the directory moves.  An append
/// writes its datasets after the old directory and leaves that directory as
/// dead space, so the superblock always points at a complete directory.
/// A superblock whose directory offset is 0 is the writer's placeholder: the
/// file was never committed.
///
/// Two directory engines model the HDF4-vs-HDF5 behaviour the paper leans
/// on (§3.2, §7.1):
///   * kLinear  — entries in insertion order; name lookup is a linear scan;
///     the writer re-persists the directory after EVERY dataset append (the
///     way HDF4 maintains its in-file DD list), so file-update cost grows
///     with the number of datasets already in the file.  Each append
///     overwrites the directory the superblock points to, so a kLinear file
///     is not crash-safe.  The simulator's snapshot files use it.
///   * kIndexed — entries sorted by name; lookup is a binary search; the
///     directory is written once at close (HDF5-style).  The services'
///     snapshot files use it on every real substrate
///     (roccom::SnapshotFiles picks the kind from the file system).

#include "shdf/types.h"
#include "util/serialize.h"
#include "vfs/vfs.h"

namespace roc::shdf {

inline constexpr uint64_t kMagic = 0x0146'4448'5343'4F52ULL;  // "ROCSHDF\x01"
inline constexpr uint32_t kVersion = 2;
inline constexpr uint64_t kSuperblockBytes = 48;

enum class DirectoryKind : uint32_t {
  kLinear = 0,   ///< HDF4-like behaviour.
  kIndexed = 1,  ///< HDF5-like behaviour.
};

struct Superblock {
  DirectoryKind directory_kind = DirectoryKind::kIndexed;
  uint64_t directory_offset = 0;
  uint64_t directory_bytes = 0;
  uint64_t dataset_count = 0;
};

/// One directory entry: where a dataset record starts.
struct DirEntry {
  std::string name;
  uint64_t header_offset = 0;
};

/// Serializes a superblock to exactly kSuperblockBytes.
void write_superblock(ByteWriter& w, const Superblock& sb);
/// Parses a superblock; throws FormatError on bad magic/version.
Superblock read_superblock(ByteReader& r);

/// Serializes a dataset header (def + payload size + checksum).
void write_dataset_header(ByteWriter& w, const DatasetDef& def,
                          uint64_t checksum);
/// Parses a dataset header; `data_offset` is filled by the caller.
DatasetInfo read_dataset_header(ByteReader& r);

void write_directory(ByteWriter& w, const std::vector<DirEntry>& entries);
std::vector<DirEntry> read_directory(ByteReader& r);

/// A file's superblock and directory, as stored.
struct Index {
  Superblock superblock;
  std::vector<DirEntry> entries;  ///< Directory order.
  uint64_t file_size = 0;         ///< Size of the file when it was read.
};

/// Reads the superblock and directory of `file` (named `path` in errors).
/// Both are bounds-checked against the file's size before anything is
/// allocated, so a corrupted superblock fails with FormatError instead of
/// running out of memory.
Index read_index(vfs::File& file, const std::string& path);

void write_attr(ByteWriter& w, const Attribute& a);
Attribute read_attr(ByteReader& r);

}  // namespace roc::shdf
