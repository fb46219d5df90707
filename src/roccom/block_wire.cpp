#include "roccom/block_wire.h"

#include "roccom/blockio.h"
#include "util/serialize.h"

namespace roc::roccom {

// --- wire format v2 --------------------------------------------------------
//
//   i32  pane_id
//   u8   kind        (0 = all, 1 = mesh, 2 = field)
//   u8   mesh_kind   (0 = structured, 1 = unstructured; 0 for kind=field)
//   i32 x3 node_dims (structured only; zeros otherwise)
//   u32  nsections
//   per section: u8 role (0 coords | 1 connectivity | 2 field),
//                string name (empty for geometry), u8 centering, i32 ncomp,
//                u64 count (elements)
//   payload: the raw little-endian arrays, concatenated in table order
//            (coords/fields float64, connectivity int32)
//
// The payload arrays sit unframed after the header, which is what lets
// serialize_chain alias caller storage and WireBlockView write straight
// from received bytes.

namespace {

constexpr uint8_t kKindField = 2;

constexpr uint8_t kRoleCoords = 0;
constexpr uint8_t kRoleConn = 1;
constexpr uint8_t kRoleField = 2;

/// Smallest encodable section-table entry, to bound nsections.
constexpr size_t kMinSectionTableBytes = 1 + 4 + 1 + 4 + 8;

size_t elem_size(uint8_t role) { return role == kRoleConn ? 4 : 8; }

/// Appends one raw array as a chain segment: aliased on little-endian
/// hosts, converted into an owned segment elsewhere.
template <typename T>
void append_payload(BufferChain& chain, const T* data, size_t count) {
  if constexpr (roc::detail::kHostLittleEndian) {
    chain.append_borrowed(data, count * sizeof(T));
  } else {
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: big-endian conversion fallback only.
    ByteWriter w;
    w.put_raw_array(data, count);
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: big-endian conversion fallback only.
    chain.append(SharedBuffer::adopt(w.take()));
  }
}

/// Copies `count` little-endian elements from the wire into `out`.
template <typename T>
void read_payload(const unsigned char* src, uint64_t count, T* out) {
  if (count == 0) return;
  if constexpr (roc::detail::kHostLittleEndian) {
    std::memcpy(out, src, static_cast<size_t>(count) * sizeof(T));
  } else {
    ByteReader r(src, static_cast<size_t>(count) * sizeof(T));
    for (uint64_t i = 0; i < count; ++i) out[i] = r.get<T>();
  }
}

void put_section_entry(ByteWriter& h, uint8_t role, const std::string& name,
                       mesh::Centering centering, int32_t ncomp,
                       uint64_t count) {
  h.put<uint8_t>(role);
  h.put_string(name);
  h.put<uint8_t>(static_cast<uint8_t>(centering));
  h.put<int32_t>(ncomp);
  h.put<uint64_t>(count);
}

/// Builds the chain for one marshalled block: an owned header segment plus
/// payload segments borrowed from `geo`/`fields` storage.  With `pool` the
/// header storage comes from (and returns to) the pool; `out` is refilled
/// in place, keeping its segment-list capacity.
void build_chain_into(int pane_id, uint8_t kind, const mesh::MeshBlock* geo,
                      std::span<const mesh::Field> fields,
                      BufferPool* pool, BufferChain& out) {
  out.clear();
  // Pool-seeded scratch: acquire() hands back recycled storage whose
  // capacity the ByteWriter keeps, so steady-state marshalling allocates
  // nothing for the header.
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: ByteWriter is seeded from
  // pool-acquired storage; steady state reuses recycled capacity.
  ByteWriter h(pool ? pool->acquire(256) : std::vector<unsigned char>());
  h.put<int32_t>(pane_id);
  h.put<uint8_t>(kind);
  const bool unstructured =
      geo && geo->kind() == mesh::MeshKind::kUnstructured;
  h.put<uint8_t>(geo ? static_cast<uint8_t>(geo->kind()) : 0);
  const std::array<int, 3> dims =
      geo ? geo->node_dims() : std::array<int, 3>{0, 0, 0};
  for (int d : dims) h.put<int32_t>(d);
  const auto nsec = static_cast<uint32_t>(
      (geo ? 1u + (unstructured ? 1u : 0u) : 0u) + fields.size());
  h.put<uint32_t>(nsec);
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: function-local static, constructed once per process.
  static const std::string kNoName;
  if (geo) {
    put_section_entry(h, kRoleCoords, kNoName, mesh::Centering::kNode, 1,
                      geo->coords().size());
    if (unstructured)
      put_section_entry(h, kRoleConn, kNoName, mesh::Centering::kNode, 1,
                        geo->connectivity().size());
  }
  for (const mesh::Field& f : fields)
    put_section_entry(h, kRoleField, f.name, f.centering, f.ncomp,
                      f.data.size());

  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: pool-less fallback keeps the
  // legacy adopt; the pooled branch seals through the recycling channel.
  out.append(pool ? pool->seal(h.take()) : SharedBuffer::adopt(h.take()));
  if (geo) {
    append_payload(out, geo->coords().data(), geo->coords().size());
    if (unstructured)
      append_payload(out, geo->connectivity().data(),
                     geo->connectivity().size());
  }
  for (const mesh::Field& f : fields)
    append_payload(out, f.data.data(), f.data.size());
}

}  // namespace

// --- header parser -------------------------------------------------------

void WireBlockView::parse_header(const unsigned char* data, size_t n) {
  ByteReader r(data, n);
  pane_id_ = r.get<int32_t>();
  kind_ = r.get<uint8_t>();
  if (kind_ > kKindField) throw FormatError("bad WireBlock kind");
  const auto mk = r.get<uint8_t>();
  if (mk > 1) throw FormatError("bad mesh kind in WireBlock");
  mesh_kind_ = static_cast<mesh::MeshKind>(mk);
  for (auto& d : node_dims_) d = r.get<int32_t>();
  const auto nsec = r.get<uint32_t>();
  if (nsec > r.remaining() / kMinSectionTableBytes)
    throw FormatError("section count exceeds stream in WireBlock");
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: bounded per-block header
  // metadata (one section table per received block, sized up front).
  sections_.resize(nsec);
  for (Section& s : sections_) {
    s.role = r.get<uint8_t>();
    if (s.role > kRoleField) throw FormatError("bad section role in WireBlock");
    s.name = r.get_string();
    const auto centering = r.get<uint8_t>();
    if (centering > 1) throw FormatError("bad centering in WireBlock");
    s.centering = static_cast<mesh::Centering>(centering);
    s.ncomp = r.get<int32_t>();
    s.count = r.get<uint64_t>();
    if (s.role == kRoleField &&
        (s.ncomp < 1 || s.count % static_cast<uint64_t>(s.ncomp) != 0))
      throw FormatError("bad field component count in WireBlock");
  }
  // Lay the payload out; every section must fit in the remaining bytes
  // (guards both truncation and oversized counts before any allocation).
  uint64_t off = r.position();
  for (Section& s : sections_) {
    const size_t esz = elem_size(s.role);
    if (s.count > (n - off) / esz)
      throw FormatError("wire payload truncated in WireBlock");
    s.offset = off;
    s.bytes = s.count * esz;
    off += s.bytes;
  }
  // Section order, shared by every consumer.
  if (kind_ == kKindField) {
    if (sections_.size() != 1 || sections_[0].role != kRoleField)
      throw FormatError("field WireBlock must carry exactly one field");
    return;
  }
  if (sections_.empty() || sections_[0].role != kRoleCoords)
    throw FormatError("WireBlock lacks a coords section");
  const size_t ngeo = mesh_kind_ == mesh::MeshKind::kUnstructured ? 2 : 1;
  if (ngeo == 2 && (sections_.size() < 2 || sections_[1].role != kRoleConn))
    throw FormatError("unstructured WireBlock lacks connectivity");
  for (size_t i = ngeo; i < sections_.size(); ++i)
    if (sections_[i].role != kRoleField)
      throw FormatError("unexpected geometry section in WireBlock");
  if (kind_ == 1 && sections_.size() != ngeo)
    throw FormatError("mesh WireBlock must not carry fields");
  node_count_ = sections_[0].count / 3;
}

// --- decoder ---------------------------------------------------------------

mesh::MeshBlock WireBlockView::decode(const unsigned char* data) const {
  if (kind_ == kKindField)
    throw FormatError("field WireBlock does not decode to a block");
  // Validate each array against the block's shape before the factory
  // sizes storage for it; the wire-bounded coords count bounds every
  // allocation below.
  const Section& cs = sections_[0];
  mesh::MeshBlock b;
  size_t next = 1;
  if (mesh_kind_ == mesh::MeshKind::kStructured) {
    const auto d0 = static_cast<uint64_t>(node_dims_[0]);
    const auto d1 = static_cast<uint64_t>(node_dims_[1]);
    const auto d2 = static_cast<uint64_t>(node_dims_[2]);
    if (node_dims_[0] < 2 || node_dims_[1] < 2 || node_dims_[2] < 2 ||
        static_cast<unsigned __int128>(cs.count) !=
            3 * static_cast<unsigned __int128>(d0) * d1 * d2)
      throw FormatError("coords do not match node dims in WireBlock");
    b = mesh::MeshBlock::structured(pane_id_, node_dims_);
  } else {
    if (cs.count % 3 != 0)
      throw FormatError("coords count not divisible by 3 in WireBlock");
    const Section& ns = sections_[next++];
    if (ns.count % 4 != 0)
      throw FormatError("connectivity not a multiple of 4 in WireBlock");
    std::vector<int32_t> conn(static_cast<size_t>(ns.count));
    read_payload(data + ns.offset, ns.count, conn.data());
    for (const int32_t v : conn)
      if (v < 0 || static_cast<uint64_t>(v) >= node_count_)
        throw FormatError("connectivity references a node out of range "
                          "in WireBlock");
    b = mesh::MeshBlock::unstructured(pane_id_,
                                      static_cast<size_t>(node_count_),
                                      std::move(conn));
  }
  read_payload(data + cs.offset, cs.count, b.coords().data());

  for (; next < sections_.size(); ++next) {
    const Section& s = sections_[next];
    if (b.find_field(s.name) != nullptr)
      throw FormatError("duplicate field in WireBlock");
    if (s.count == 0) {
      b.fields().push_back(mesh::Field{s.name, s.centering, s.ncomp, {}});
      continue;
    }
    if (s.count / static_cast<uint64_t>(s.ncomp) !=
        b.entity_count(s.centering))
      throw FormatError("field value count does not match the block in "
                        "WireBlock");
    mesh::Field& f = b.add_field(s.name, s.centering, s.ncomp);
    read_payload(data + s.offset, s.count, f.data.data());
  }
  return b;
}

mesh::MeshBlock decode_block(const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  WireBlockView v;
  v.parse_header(bytes, n);
  return v.decode(bytes);
}

// --- reference path --------------------------------------------------------

WireBlock WireBlock::from_block(const mesh::MeshBlock& block,
                                const std::string& attribute) {
  WireBlock wb;
  wb.pane_id_ = block.id();
  if (attribute == "all") {
    wb.kind_ = Kind::kAll;
    wb.block_ = block;
  } else if (attribute == "mesh") {
    wb.kind_ = Kind::kMesh;
    wb.block_ = block;
    wb.block_.fields().clear();
  } else {
    wb.kind_ = Kind::kField;
    wb.field_ = block.field(attribute);
  }
  return wb;
}

BufferChain WireBlock::serialize_chain(const mesh::MeshBlock& block,
                                       const std::string& attribute) {
  BufferChain chain;
  serialize_chain_into(block, attribute, nullptr, chain);
  return chain;
}

void WireBlock::serialize_chain_into(const mesh::MeshBlock& block,
                                     const std::string& attribute,
                                     BufferPool* pool, BufferChain& out) {
  if (attribute == "all") {
    // The block's fields are contiguous, so the whole set marshals as one
    // span — no per-call pointer scratch (this is an R8 hot path).
    build_chain_into(block.id(), 0, &block, block.fields(), pool, out);
    return;
  }
  if (attribute == "mesh") {
    build_chain_into(block.id(), 1, &block, {}, pool, out);
    return;
  }
  build_chain_into(block.id(), kKindField, nullptr,
                   {&block.field(attribute), 1}, pool, out);
}

std::vector<unsigned char> WireBlock::serialize() const {
  BufferChain chain;
  if (kind_ == Kind::kField)
    build_chain_into(pane_id_, kKindField, nullptr, {&field_, 1}, nullptr,
                     chain);
  else
    build_chain_into(pane_id_, static_cast<uint8_t>(kind_), &block_,
                     block_.fields(), nullptr, chain);
  return chain.to_vector();
}

// ROC_COLD: the materialising deserialize is the reference the zero-copy
// path is tested against; the server's receive path keeps a WireBlockView
// over the wire bytes instead.
ROC_COLD WireBlock WireBlock::deserialize(
    const std::vector<unsigned char>& bytes) {
  WireBlockView v;
  v.parse_header(bytes.data(), bytes.size());
  WireBlock wb;
  wb.pane_id_ = v.pane_id_;
  wb.kind_ = static_cast<Kind>(v.kind_);
  if (wb.kind_ != Kind::kField) {
    wb.block_ = v.decode(bytes.data());
    return wb;
  }
  const WireBlockView::Section& s = v.sections_[0];
  wb.field_.name = s.name;
  wb.field_.centering = s.centering;
  wb.field_.ncomp = s.ncomp;
  wb.field_.data.resize(static_cast<size_t>(s.count));
  read_payload(bytes.data() + s.offset, s.count, wb.field_.data.data());
  return wb;
}

// ROC_COLD: companion of the reference deserialize above -- writes from a
// materialised WireBlock; the hot path uses WireBlockView::write_to.
ROC_COLD void WireBlock::write_to(shdf::Writer& w, const std::string& window,
                                  double time) const {
  switch (kind_) {
    case Kind::kAll:
      write_block(w, window, block_, "all", time);
      break;
    case Kind::kMesh:
      write_block(w, window, block_, "mesh", time);
      break;
    case Kind::kField: {
      shdf::DatasetDef def;
      field_def_into(block_prefix(window, pane_id_), field_.name,
                     field_.centering, field_.ncomp, field_.data.size(), time,
                     def);
      w.add_dataset(def, field_.data.data());
      break;
    }
  }
}

// --- pass-through view -----------------------------------------------------

WireBlockView WireBlockView::parse(SharedBuffer wire) {
  WireBlockView v;
  v.parse_header(wire.data(), wire.size());
  v.wire_ = std::move(wire);
  return v;
}

void WireBlockView::write_to(shdf::Writer& w, const std::string& window,
                             double time, WriteScratch* scratch) const {
  if constexpr (!roc::detail::kHostLittleEndian) {
    // Big-endian hosts cannot alias the little-endian wire payloads;
    // fall back to the materialising path.
    // ROCANALYZE-ALLOW(r9-copy-discipline): why: big-endian fallback only;
    // little-endian hosts take the zero-copy path below.
    WireBlock::deserialize(wire_.to_vector()).write_to(w, window, time);
    return;
  }
  // The scratch (prefix string, dataset def, payload chain) is rebuilt in
  // place per dataset; a caller-retained scratch makes the whole write
  // allocation-free in steady state.
  WriteScratch local;
  WriteScratch& sc = scratch ? *scratch : local;
  block_prefix_into(window, pane_id_, sc.prefix);
  // Each payload is an owned slice of the retained wire bytes, so the
  // writer may queue it past this call and gather many datasets into one
  // write.
  auto put = [&](const Section& s, const shdf::DatasetDef& def) {
    sc.chain.clear();
    sc.chain.append(wire_.slice(static_cast<size_t>(s.offset),
                                static_cast<size_t>(s.bytes)));
    w.put_dataset(def, sc.chain);
  };
  if (kind_ == kKindField) {
    const Section& s = sections_[0];
    field_def_into(sc.prefix, s.name, s.centering, s.ncomp, s.count, time,
                   sc.def);
    put(s, sc.def);
    return;
  }
  const Section& cs = sections_[0];
  coords_def_into(sc.prefix, pane_id_, mesh_kind_, node_dims_, node_count_,
                  time, sc.geo_def);
  put(cs, sc.geo_def);
  size_t next = 1;
  if (mesh_kind_ == mesh::MeshKind::kUnstructured) {
    const Section& ns = sections_[next++];
    connectivity_def_into(sc.prefix, ns.count / 4, sc.def);
    put(ns, sc.def);
  }
  for (; next < sections_.size(); ++next) {
    const Section& s = sections_[next];
    field_def_into(sc.prefix, s.name, s.centering, s.ncomp, s.count, time,
                   sc.def);
    put(s, sc.def);
  }
}

}  // namespace roc::roccom
