#include "roccom/blockio.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <string_view>

namespace roc::roccom {

namespace {

using mesh::Centering;
using mesh::MeshBlock;
using mesh::MeshKind;
using shdf::Attribute;
using shdf::DatasetDef;
using shdf::DataType;

// Both take the block's group prefix (block_prefix) and rebuild `def`.
void write_mesh(shdf::Writer& w, const std::string& prefix,
                const MeshBlock& b, double time, DatasetDef& def) {
  coords_def_into(prefix, b.id(), b.kind(), b.node_dims(), b.node_count(),
                  time, def);
  w.add_dataset(def, b.coords().data());
  if (b.kind() == MeshKind::kUnstructured) {
    connectivity_def_into(prefix, b.element_count(), def);
    w.add_dataset(def, b.connectivity().data());
  }
}

void write_field(shdf::Writer& w, const std::string& prefix,
                 const mesh::Field& f, double time, DatasetDef& def) {
  field_def_into(prefix, f.name, f.centering, f.ncomp, f.data.size(), time,
                 def);
  w.add_dataset(def, f.data.data());
}

int64_t int_attr(const shdf::Reader& r, const std::string& dataset,
                 const std::string& attr) {
  auto v = r.attribute(dataset, attr);
  if (!v || !std::holds_alternative<int64_t>(*v))
    throw FormatError("dataset '" + dataset + "' lacks integer attribute '" +
                      attr + "'");
  return std::get<int64_t>(*v);
}

/// Splits a block's coords dataset name, `<window>/block_<id>/coords`;
/// false for every other dataset.
bool parse_coords_name(std::string_view name, std::string_view& window,
                       int& pane_id) {
  constexpr std::string_view kTail = "/coords";
  constexpr std::string_view kGroup = "/block_";
  if (!name.ends_with(kTail)) return false;
  name.remove_suffix(kTail.size());
  const size_t g = name.rfind(kGroup);
  if (g == std::string_view::npos) return false;
  const std::string_view id = name.substr(g + kGroup.size());
  const auto [end, ec] =
      std::from_chars(id.data(), id.data() + id.size(), pane_id);
  if (ec != std::errc() || end != id.data() + id.size()) return false;
  window = name.substr(0, g);
  return true;
}

}  // namespace

// Formatting isolated behind ROC_COLD: the hot closure stops here, and the
// snprintf cost is once per block, bounded, into stack storage.
ROC_COLD void block_prefix_into(const std::string& window, int pane_id,
                                std::string& out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/block_%06d/", pane_id);
  out = window;
  out += buf;
}

std::string block_prefix(const std::string& window, int pane_id) {
  std::string out;
  block_prefix_into(window, pane_id, out);
  return out;
}

void coords_def_into(const std::string& prefix, int pane_id, MeshKind kind,
                     const std::array<int, 3>& node_dims, uint64_t node_count,
                     double time, DatasetDef& def) {
  def.name = prefix;
  def.name += "coords";
  def.type = DataType::kFloat64;
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: retained-capacity rebuild of
  // the caller's scratch def; steady state reuses the storage.
  def.dims.resize(2);
  def.dims[0] = node_count;
  def.dims[1] = 3;
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: retained-capacity rebuild;
  // four fixed attribute slots, names within SSO.
  def.attributes.resize(4);
  def.attributes[0].name = "kind";
  def.attributes[0].value = static_cast<int64_t>(kind);
  def.attributes[1].name = "pane_id";
  def.attributes[1].value = static_cast<int64_t>(pane_id);
  def.attributes[2].name = "time";
  def.attributes[2].value = time;
  def.attributes[3].name = "node_dims";
  if (!std::holds_alternative<std::vector<int64_t>>(def.attributes[3].value))
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: first-call variant seeding;
    // steady state mutates the retained vector in place.
    def.attributes[3].value = std::vector<int64_t>(3);
  auto& nd = std::get<std::vector<int64_t>>(def.attributes[3].value);
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: no-op resize in steady state.
  nd.resize(3);
  nd[0] = node_dims[0];
  nd[1] = node_dims[1];
  nd[2] = node_dims[2];
}

void connectivity_def_into(const std::string& prefix, uint64_t element_count,
                           DatasetDef& def) {
  def.name = prefix;
  def.name += "connectivity";
  def.type = DataType::kInt32;
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: retained-capacity rebuild.
  def.dims.resize(2);
  def.dims[0] = element_count;
  def.dims[1] = 4;
  def.attributes.clear();
}

void field_def_into(const std::string& prefix, const std::string& field,
                    mesh::Centering centering, int ncomp,
                    uint64_t value_count, double time, DatasetDef& def) {
  def.name = prefix;
  def.name += "field:";
  def.name += field;
  def.type = DataType::kFloat64;
  // Entity count derived from the data itself, so partially-populated
  // marshalling blocks (field-only transfers) write correct datasets.
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: retained-capacity rebuild.
  def.dims.resize(2);
  def.dims[0] = value_count / static_cast<uint64_t>(ncomp);
  def.dims[1] = static_cast<uint64_t>(ncomp);
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: retained-capacity rebuild;
  // two fixed attribute slots, names within SSO.
  def.attributes.resize(2);
  def.attributes[0].name = "centering";
  def.attributes[0].value = static_cast<int64_t>(centering);
  def.attributes[1].name = "time";
  def.attributes[1].value = time;
}

void write_block(shdf::Writer& w, const std::string& window,
                 const MeshBlock& block, const std::string& attribute,
                 double time) {
  const std::string prefix = block_prefix(window, block.id());
  DatasetDef def;
  if (attribute == "all") {
    write_mesh(w, prefix, block, time, def);
    for (const auto& f : block.fields()) write_field(w, prefix, f, time, def);
  } else if (attribute == "mesh") {
    write_mesh(w, prefix, block, time, def);
  } else {
    write_field(w, prefix, block.field(attribute), time, def);
  }
}

shdf::Writer& SnapshotFiles::open(const std::string& path) {
  if (writer_ && path_ == path) return *writer_;
  close();
  // The substrate picks the directory engine.  The simulator reproduces
  // the paper's HDF4 platform, whose per-dataset directory writes Table 1
  // and Fig. 3 are calibrated against; everywhere else put_dataset appends
  // only the dataset and the directory is written once, at close(), which
  // is the services' snapshot boundary.  An append keeps the file's kind.
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: once per opened file, not
  // per block (file-tracking bookkeeping and Writer construction).
  const bool first = started_.insert(path).second;
  if (first) ++created_;
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: once per opened file.
  writer_ = std::make_unique<shdf::Writer>(
      first ? shdf::Writer(fs_, path,
                           fs_.models_paper_platform()
                               ? shdf::DirectoryKind::kLinear
                               : shdf::DirectoryKind::kIndexed)
            : shdf::Writer::append(fs_, path));
  path_ = path;
  return *writer_;
}

void SnapshotFiles::close() {
  if (!writer_) return;
  const std::unique_ptr<shdf::Writer> w = std::move(writer_);
  path_.clear();
  w->close();
}

std::vector<std::string> snapshot_files(vfs::FileSystem& fs,
                                        const std::string& prefix,
                                        const std::string& base) {
  const std::string stem = prefix + base + "_";
  constexpr std::string_view kExt = ".shdf";
  std::vector<std::string> files;
  for (auto& path : fs.list(stem)) {
    // What follows the stem must be exactly [ps]<digits>.shdf.
    std::string_view rest(path);
    rest.remove_prefix(stem.size());
    if (rest.size() < 2 + kExt.size() || (rest[0] != 'p' && rest[0] != 's') ||
        !rest.ends_with(kExt))
      continue;
    const std::string_view digits =
        rest.substr(1, rest.size() - 1 - kExt.size());
    if (std::all_of(digits.begin(), digits.end(),
                    [](char c) { return c >= '0' && c <= '9'; }))
      files.push_back(std::move(path));
  }
  return files;  // fs.list returns sorted paths
}

std::vector<BlockRef> blocks_in_file(const shdf::Reader& r) {
  std::vector<BlockRef> blocks;
  std::string_view window;
  int id = 0;
  for (const auto& name : r.dataset_names())
    if (parse_coords_name(name, window, id))
      blocks.push_back(BlockRef{std::string(window), id});
  std::sort(blocks.begin(), blocks.end(),
            [](const BlockRef& a, const BlockRef& b) {
              return a.window != b.window ? a.window < b.window
                                          : a.pane_id < b.pane_id;
            });
  return blocks;
}

std::vector<int> pane_ids_in_file(const shdf::Reader& r,
                                  const std::string& window) {
  std::vector<int> ids;
  for (const auto& block : blocks_in_file(r))
    if (block.window == window) ids.push_back(block.pane_id);
  return ids;
}

MeshBlock read_block(const shdf::Reader& r, const std::string& window,
                     int pane_id) {
  const std::string prefix = block_prefix(window, pane_id);
  const std::string coords_name = prefix + "coords";
  const auto kind = static_cast<MeshKind>(int_attr(r, coords_name, "kind"));

  MeshBlock block;
  if (kind == MeshKind::kStructured) {
    auto dims_attr = r.attribute(coords_name, "node_dims");
    if (!dims_attr || !std::holds_alternative<std::vector<int64_t>>(*dims_attr))
      throw FormatError("structured block " + coords_name +
                        " lacks node_dims");
    const auto& nd = std::get<std::vector<int64_t>>(*dims_attr);
    block = MeshBlock::structured(
        pane_id, {static_cast<int>(nd[0]), static_cast<int>(nd[1]),
                  static_cast<int>(nd[2])});
  } else {
    auto conn = r.read<int32_t>(prefix + "connectivity");
    const uint64_t nnodes = r.info(coords_name).def.dims[0];
    block = MeshBlock::unstructured(pane_id, static_cast<size_t>(nnodes),
                                    std::move(conn));
  }
  block.coords() = r.read<double>(coords_name);

  // Fields: every "field:" dataset under the prefix.
  const std::string field_prefix = prefix + "field:";
  for (const auto& name : r.dataset_names_with_prefix(field_prefix)) {
    const std::string fname = name.substr(field_prefix.size());
    const auto& info = r.info(name);
    const auto centering =
        static_cast<Centering>(int_attr(r, name, "centering"));
    const int ncomp = static_cast<int>(info.def.dims[1]);
    mesh::Field& f = block.add_field(fname, centering, ncomp);
    f.data = r.read<double>(name);
    if (f.data.size() != info.def.element_count())
      throw FormatError("field dataset '" + name + "' size mismatch");
  }
  return block;
}

void read_into_block(const shdf::Reader& r, const std::string& window,
                     const std::string& attribute, MeshBlock& block) {
  const std::string prefix = block_prefix(window, block.id());
  auto fill_mesh = [&] {
    auto coords = r.read<double>(prefix + "coords");
    if (coords.size() != block.coords().size())
      throw FormatError("stored coords size does not match pane " +
                        std::to_string(block.id()));
    block.coords() = std::move(coords);
  };
  auto fill_field = [&](const std::string& fname) {
    mesh::Field& f = block.field(fname);
    auto data = r.read<double>(prefix + "field:" + fname);
    if (data.size() != f.data.size())
      throw FormatError("stored field '" + fname +
                        "' size does not match pane " +
                        std::to_string(block.id()));
    f.data = std::move(data);
  };

  if (attribute == "all") {
    fill_mesh();
    for (const auto& f : block.fields()) fill_field(f.name);
  } else if (attribute == "mesh") {
    fill_mesh();
  } else {
    fill_field(attribute);
  }
}

double block_time(const shdf::Reader& r, const std::string& window,
                  int pane_id) {
  const std::string coords_name = block_prefix(window, pane_id) + "coords";
  auto v = r.attribute(coords_name, "time");
  if (!v || !std::holds_alternative<double>(*v))
    throw FormatError("block " + coords_name + " lacks a time stamp");
  return std::get<double>(*v);
}

}  // namespace roc::roccom
