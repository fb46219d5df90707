#include "mesh/mesh_block.h"

#include <algorithm>

#include "util/crc64.h"

namespace roc::mesh {

MeshBlock MeshBlock::structured(int block_id, std::array<int, 3> node_dims) {
  require(node_dims[0] >= 2 && node_dims[1] >= 2 && node_dims[2] >= 2,
          "structured block needs at least 2 nodes per dimension");
  MeshBlock b;
  b.id_ = block_id;
  b.kind_ = MeshKind::kStructured;
  b.dims_ = node_dims;
  b.coords_.assign(3 * b.node_count(), 0.0);
  return b;
}

MeshBlock MeshBlock::unstructured(int block_id, size_t node_count,
                                  std::vector<int32_t> connectivity) {
  require(connectivity.size() % 4 == 0,
          "tetrahedral connectivity must be a multiple of 4");
  for (int32_t v : connectivity)
    require(v >= 0 && static_cast<size_t>(v) < node_count,
            "connectivity references a node out of range");
  MeshBlock b;
  b.id_ = block_id;
  b.kind_ = MeshKind::kUnstructured;
  b.node_count_ = node_count;
  b.connectivity_ = std::move(connectivity);
  b.coords_.assign(3 * node_count, 0.0);
  return b;
}

size_t MeshBlock::node_count() const {
  if (kind_ == MeshKind::kStructured)
    return static_cast<size_t>(dims_[0]) * static_cast<size_t>(dims_[1]) *
           static_cast<size_t>(dims_[2]);
  return node_count_;
}

size_t MeshBlock::element_count() const {
  if (kind_ == MeshKind::kStructured)
    return static_cast<size_t>(dims_[0] - 1) *
           static_cast<size_t>(dims_[1] - 1) *
           static_cast<size_t>(dims_[2] - 1);
  return connectivity_.size() / 4;
}

Field& MeshBlock::add_field(const std::string& name, Centering centering,
                            int ncomp) {
  require(ncomp >= 1, "field needs at least one component");
  require(find_field(name) == nullptr,
          "duplicate field '" + name + "' on block " + std::to_string(id_));
  Field f;
  f.name = name;
  f.centering = centering;
  f.ncomp = ncomp;
  f.data.assign(static_cast<size_t>(ncomp) * entity_count(centering), 0.0);
  fields_.push_back(std::move(f));
  return fields_.back();
}

Field* MeshBlock::find_field(const std::string& name) {
  for (auto& f : fields_)
    if (f.name == name) return &f;
  return nullptr;
}

const Field* MeshBlock::find_field(const std::string& name) const {
  for (const auto& f : fields_)
    if (f.name == name) return &f;
  return nullptr;
}

Field& MeshBlock::field(const std::string& name) {
  Field* f = find_field(name);
  require(f != nullptr, "no field '", name, "' on block ", id_);
  return *f;
}

const Field& MeshBlock::field(const std::string& name) const {
  const Field* f = find_field(name);
  require(f != nullptr, "no field '", name, "' on block ", id_);
  return *f;
}

size_t MeshBlock::payload_bytes() const {
  size_t n = coords_.size() * sizeof(double) +
             connectivity_.size() * sizeof(int32_t);
  for (const auto& f : fields_) n += f.data.size() * sizeof(double);
  return n;
}

uint64_t MeshBlock::state_checksum() const {
  Crc64 crc;
  crc.update_value(id_);
  crc.update_value(kind_);
  crc.update(dims_.data(), sizeof(dims_));
  crc.update(coords_.data(), coords_.size() * sizeof(double));
  crc.update(connectivity_.data(), connectivity_.size() * sizeof(int32_t));
  // Fields sorted by name so the fingerprint is registration-order
  // independent.
  std::vector<const Field*> sorted;
  sorted.reserve(fields_.size());
  for (const auto& f : fields_) sorted.push_back(&f);
  std::sort(sorted.begin(), sorted.end(),
            [](const Field* a, const Field* b) { return a->name < b->name; });
  for (const Field* f : sorted) {
    crc.update(f->name.data(), f->name.size());
    crc.update_value(f->centering);
    crc.update_value(f->ncomp);
    crc.update(f->data.data(), f->data.size() * sizeof(double));
  }
  return crc.value();
}

void copy_block_attribute(const MeshBlock& src, MeshBlock& dst,
                          const std::string& attribute) {
  require(src.id() == dst.id(), "copy_block_attribute: block id mismatch");
  auto copy_mesh = [&] {
    require(src.coords().size() == dst.coords().size(),
            "block " + std::to_string(dst.id()) +
                ": stored coordinates do not match the registered pane");
    dst.coords() = src.coords();
  };
  auto copy_field = [&](const std::string& name) {
    const Field& f = src.field(name);
    Field& g = dst.field(name);
    require(f.data.size() == g.data.size() && f.ncomp == g.ncomp,
            "block " + std::to_string(dst.id()) + ": stored field '" + name +
                "' does not match the registered pane");
    g.data = f.data;
  };
  if (attribute == "all") {
    copy_mesh();
    for (const auto& f : dst.fields()) copy_field(f.name);
  } else if (attribute == "mesh") {
    copy_mesh();
  } else {
    copy_field(attribute);
  }
}

}  // namespace roc::mesh
