#include "shdf/reader.h"

#include <algorithm>

#include "util/crc64.h"

namespace roc::shdf {

Reader::Reader(vfs::FileSystem& fs, const std::string& path)
    : file_(fs.open(path, vfs::OpenMode::kRead)), path_(path) {
  const Index index = read_index(*file_, path_);
  kind_ = index.superblock.directory_kind;
  file_size_ = index.file_size;

  // Dataset headers.  Typical headers are a few hundred bytes; probe small
  // and widen only when the header runs past the window, so the read cost
  // reflects real metadata sizes and an invalid header fails on the first
  // probe.
  infos_.reserve(index.entries.size());
  for (const auto& e : index.entries) {
    if (e.header_offset >= file_size_)
      throw FormatError("dataset header offset past end of " + path_);
    DatasetInfo info;
    bool parsed = false;
    for (uint64_t probe : {uint64_t{512}, uint64_t{64} * 1024,
                           file_size_ - e.header_offset}) {
      const uint64_t want =
          std::min<uint64_t>(file_size_ - e.header_offset, probe);
      std::vector<unsigned char> buf(static_cast<size_t>(want));
      file_->seek(e.header_offset);
      file_->read(buf.data(), buf.size());
      ByteReader hr(buf.data(), buf.size());
      try {
        info = read_dataset_header(hr);
      } catch (const TruncatedError&) {
        if (want == file_size_ - e.header_offset) throw;  // truly corrupt
        continue;  // header longer than the probe window: widen
      }
      info.data_offset = e.header_offset + hr.position();
      parsed = true;
      break;
    }
    require(parsed, "unreachable: header parse fell through");
    infos_.push_back(std::move(info));
  }
}

std::vector<std::string> Reader::dataset_names() const {
  std::vector<std::string> names;
  names.reserve(infos_.size());
  for (const auto& i : infos_) names.push_back(i.def.name);
  return names;
}

std::vector<std::string> Reader::dataset_names_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> names;
  for (const auto& i : infos_)
    if (i.def.name.rfind(prefix, 0) == 0) names.push_back(i.def.name);
  return names;
}

size_t Reader::find(const std::string& name) const {
  if (kind_ == DirectoryKind::kIndexed) {
    // Directory order is name order for indexed files.
    auto it = std::lower_bound(
        infos_.begin(), infos_.end(), name,
        [](const DatasetInfo& i, const std::string& n) { return i.def.name < n; });
    if (it != infos_.end() && it->def.name == name)
      return static_cast<size_t>(it - infos_.begin());
    return SIZE_MAX;
  }
  for (size_t i = 0; i < infos_.size(); ++i)
    if (infos_[i].def.name == name) return i;
  return SIZE_MAX;
}

bool Reader::has_dataset(const std::string& name) const {
  return find(name) != SIZE_MAX;
}

const DatasetInfo& Reader::info(const std::string& name) const {
  const size_t i = find(name);
  if (i == SIZE_MAX)
    throw FormatError("no dataset '" + name + "' in " + path_);
  return infos_[i];
}

const DatasetInfo& Reader::info(size_t index) const {
  require(index < infos_.size(), "dataset index out of range");
  return infos_[index];
}

void Reader::check_extent(const DatasetInfo& i, uint64_t file_size) const {
  if (i.data_offset > file_size || i.data_bytes > file_size - i.data_offset)
    throw FormatError("dataset '" + i.def.name + "' extends past end of " +
                      path_);
}

void Reader::read_into(const DatasetInfo& i, void* dst) const {
  const auto n = static_cast<size_t>(i.data_bytes);
  file_->seek(i.data_offset);
  try {
    file_->read(dst, n);
  } catch (const IoError&) {
    // The extent was checked against the size at open; a short read now
    // means the file shrank since.
    check_extent(i, file_->size());
    throw;
  }
  if (crc64(dst, n) != i.checksum)
    throw FormatError("checksum mismatch reading dataset '" + i.def.name +
                      "' from " + path_);
}

std::vector<unsigned char> Reader::read_raw(const std::string& name) const {
  const DatasetInfo& i = info(name);
  check_extent(i, file_size_);
  std::vector<unsigned char> out(static_cast<size_t>(i.data_bytes));
  read_into(i, out.data());
  return out;
}

std::optional<AttrValue> Reader::attribute(const std::string& dataset,
                                           const std::string& attr) const {
  const DatasetInfo& i = info(dataset);
  for (const auto& a : i.def.attributes)
    if (a.name == attr) return a.value;
  return std::nullopt;
}

}  // namespace roc::shdf
