#include "shdf/format.h"

namespace roc::shdf {

const char* type_name(DataType t) {
  switch (t) {
    case DataType::kInt8: return "int8";
    case DataType::kUInt8: return "uint8";
    case DataType::kInt32: return "int32";
    case DataType::kUInt32: return "uint32";
    case DataType::kInt64: return "int64";
    case DataType::kUInt64: return "uint64";
    case DataType::kFloat32: return "float32";
    case DataType::kFloat64: return "float64";
  }
  return "?";
}

void write_superblock(ByteWriter& w, const Superblock& sb) {
  const size_t start = w.size();
  w.put<uint64_t>(kMagic);
  w.put<uint32_t>(kVersion);
  w.put<uint32_t>(static_cast<uint32_t>(sb.directory_kind));
  w.put<uint64_t>(sb.directory_offset);
  w.put<uint64_t>(sb.directory_bytes);
  w.put<uint64_t>(sb.dataset_count);
  // Pad to the fixed size so the superblock can be rewritten in place.
  while (w.size() - start < kSuperblockBytes) w.put<uint8_t>(0);
}

Superblock read_superblock(ByteReader& r) {
  const size_t start = r.position();
  if (r.get<uint64_t>() != kMagic)
    throw FormatError("not an SHDF file (bad magic)");
  const auto version = r.get<uint32_t>();
  if (version != kVersion)
    throw FormatError("unsupported SHDF version " + std::to_string(version));
  Superblock sb;
  const auto kind = r.get<uint32_t>();
  if (kind > 1) throw FormatError("unknown directory kind");
  sb.directory_kind = static_cast<DirectoryKind>(kind);
  sb.directory_offset = r.get<uint64_t>();
  sb.directory_bytes = r.get<uint64_t>();
  sb.dataset_count = r.get<uint64_t>();
  r.skip(kSuperblockBytes - (r.position() - start));
  return sb;
}

void write_attr(ByteWriter& w, const Attribute& a) {
  w.put_string(a.name);
  w.put<uint8_t>(static_cast<uint8_t>(a.value.index()));
  std::visit(
      [&w](const auto& v) {
        using V = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<V, int64_t>) {
          w.put<int64_t>(v);
        } else if constexpr (std::is_same_v<V, double>) {
          w.put<double>(v);
        } else if constexpr (std::is_same_v<V, std::string>) {
          w.put_string(v);
        } else {
          w.put_vector(v);
        }
      },
      a.value);
}

Attribute read_attr(ByteReader& r) {
  Attribute a;
  a.name = r.get_string();
  switch (r.get<uint8_t>()) {
    case 0: a.value = r.get<int64_t>(); break;
    case 1: a.value = r.get<double>(); break;
    case 2: a.value = r.get_string(); break;
    case 3: a.value = r.get_vector<int64_t>(); break;
    case 4: a.value = r.get_vector<double>(); break;
    default: throw FormatError("unknown attribute kind");
  }
  return a;
}

void write_dataset_header(ByteWriter& w, const DatasetDef& def,
                          uint64_t checksum) {
  const uint64_t bytes = def.byte_count();
  w.put_string(def.name);
  w.put<uint8_t>(static_cast<uint8_t>(def.type));
  w.put<uint8_t>(0);  // codec: stored as is
  w.put<uint32_t>(static_cast<uint32_t>(def.dims.size()));
  for (uint64_t d : def.dims) w.put<uint64_t>(d);
  w.put<uint32_t>(static_cast<uint32_t>(def.attributes.size()));
  for (const auto& a : def.attributes) write_attr(w, a);
  w.put<uint64_t>(bytes);  // payload size
  w.put<uint64_t>(bytes);  // stored size
  w.put<uint64_t>(checksum);
}

DatasetInfo read_dataset_header(ByteReader& r) {
  DatasetInfo info;
  info.def.name = r.get_string();
  const auto type = r.get<uint8_t>();
  if (type > static_cast<uint8_t>(DataType::kFloat64))
    throw FormatError("unknown dataset element type");
  info.def.type = static_cast<DataType>(type);
  if (r.get<uint8_t>() != 0)
    throw FormatError("dataset '" + info.def.name +
                      "' has an unsupported codec");
  const auto ndims = r.get<uint32_t>();
  // Guard allocations against corrupted counts: each dim takes 8 bytes.
  if (ndims > r.remaining() / sizeof(uint64_t))
    throw TruncatedError("dataset dimension count exceeds stream");
  info.def.dims.resize(ndims);
  for (auto& d : info.def.dims) d = r.get<uint64_t>();
  const auto nattr = r.get<uint32_t>();
  // Smallest possible attribute is ~6 bytes (empty name + kind + byte).
  if (nattr > r.remaining() / 6)
    throw TruncatedError("attribute count exceeds stream");
  info.def.attributes.reserve(nattr);
  for (uint32_t i = 0; i < nattr; ++i)
    info.def.attributes.push_back(read_attr(r));
  info.data_bytes = r.get<uint64_t>();
  const auto stored_bytes = r.get<uint64_t>();
  info.checksum = r.get<uint64_t>();
  if (info.data_bytes != info.def.byte_count() ||
      stored_bytes != info.data_bytes)
    throw FormatError("dataset '" + info.def.name +
                      "' payload or stored size disagrees with its "
                      "dimensions");
  return info;
}

void write_directory(ByteWriter& w, const std::vector<DirEntry>& entries) {
  w.put<uint64_t>(entries.size());
  for (const auto& e : entries) {
    w.put_string(e.name);
    w.put<uint64_t>(e.header_offset);
  }
}

std::vector<DirEntry> read_directory(ByteReader& r) {
  const auto n = r.get<uint64_t>();
  // A directory entry is at least 12 bytes (empty name + offset).
  if (n > r.remaining() / 12)
    throw TruncatedError("directory entry count exceeds stream");
  std::vector<DirEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    DirEntry e;
    e.name = r.get_string();
    e.header_offset = r.get<uint64_t>();
    entries.push_back(std::move(e));
  }
  return entries;
}

Index read_index(vfs::File& file, const std::string& path) {
  Index index;
  std::vector<unsigned char> bytes(kSuperblockBytes);
  file.seek(0);
  file.read(bytes.data(), bytes.size());
  ByteReader sr(bytes.data(), bytes.size());
  const Superblock& sb = index.superblock = read_superblock(sr);
  // The writer's placeholder superblock: no directory was ever written.
  if (sb.directory_offset == 0)
    throw FormatError(path + " was never committed: its writer stopped "
                             "before writing a directory");

  index.file_size = file.size();
  if (sb.directory_offset > index.file_size ||
      sb.directory_bytes > index.file_size - sb.directory_offset)
    throw FormatError("directory extends past end of file in " + path);
  bytes.resize(static_cast<size_t>(sb.directory_bytes));
  file.seek(sb.directory_offset);
  file.read(bytes.data(), bytes.size());
  ByteReader dr(bytes.data(), bytes.size());
  index.entries = read_directory(dr);
  if (index.entries.size() != sb.dataset_count)
    throw FormatError("directory entry count disagrees with superblock in " +
                      path);
  return index;
}

}  // namespace roc::shdf
