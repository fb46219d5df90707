#include "rocpanda/wire.h"

#include "roccom/blockio.h"
#include "util/serialize.h"

namespace roc::rocpanda {

std::vector<unsigned char> WriteHeader::serialize() const {
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: one header per request, not per block.
  ByteWriter w;
  w.put_string(file);
  w.put_string(window);
  w.put_string(attribute);
  w.put<double>(time);
  w.put<uint32_t>(nblocks);
  w.put<uint64_t>(trace_id);
  w.put<uint64_t>(span_id);
  return w.take();
}

WriteHeader WriteHeader::deserialize(const void* data, size_t n) {
  ByteReader r(data, n);
  WriteHeader h;
  h.file = r.get_string();
  h.window = r.get_string();
  h.attribute = r.get_string();
  h.time = r.get<double>();
  h.nblocks = r.get<uint32_t>();
  h.trace_id = r.get<uint64_t>();
  h.span_id = r.get<uint64_t>();
  return h;
}

std::vector<unsigned char> ReadHeader::serialize() const {
  ByteWriter w;
  w.put_string(file);
  w.put_string(window);
  w.put_vector(pane_ids);
  return w.take();
}

ReadHeader ReadHeader::deserialize(const void* data, size_t n) {
  ByteReader r(data, n);
  ReadHeader h;
  h.file = r.get_string();
  h.window = r.get_string();
  h.pane_ids = r.get_vector<int32_t>();
  return h;
}

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

constexpr uint8_t kRoleCoords = 0;
constexpr uint8_t kRoleConn = 1;
constexpr uint8_t kRoleField = 2;

/// Smallest encodable section-table entry, to bound nsections.
constexpr size_t kMinSectionTableBytes = 1 + 4 + 1 + 4 + 8;

struct Sec {
  uint8_t role = 0;
  std::string name;
  mesh::Centering centering = mesh::Centering::kNode;
  int32_t ncomp = 1;
  uint64_t count = 0;   ///< Elements.
  uint64_t offset = 0;  ///< Absolute byte offset into the wire buffer.
  uint64_t bytes = 0;
};

struct Parsed {
  int pane_id = -1;
  uint8_t kind = 0;
  mesh::MeshKind mesh_kind = mesh::MeshKind::kStructured;
  std::array<int, 3> node_dims{0, 0, 0};
  std::vector<Sec> sections;
};

size_t elem_size(uint8_t role) { return role == kRoleConn ? 4 : 8; }

/// Parses and validates the header + section table of `[data, data+n)`;
/// computes each section's absolute payload offset.  Throws FormatError on
/// anything malformed, including payloads extending past the buffer, so
/// the materialising and pass-through paths reject identical inputs.
Parsed parse_wire(const unsigned char* data, size_t n) {
  ByteReader r(data, n);
  Parsed p;
  p.pane_id = r.get<int32_t>();
  p.kind = r.get<uint8_t>();
  if (p.kind > 2) throw FormatError("bad WireBlock kind");
  const auto mk = r.get<uint8_t>();
  if (mk > 1) throw FormatError("bad mesh kind in WireBlock");
  p.mesh_kind = static_cast<mesh::MeshKind>(mk);
  for (auto& d : p.node_dims) d = r.get<int32_t>();
  const auto nsec = r.get<uint32_t>();
  if (nsec > r.remaining() / kMinSectionTableBytes)
    throw FormatError("section count exceeds stream in WireBlock");
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: bounded per-block header
  // metadata (one section table per received block, sized up front).
  p.sections.reserve(nsec);
  for (uint32_t i = 0; i < nsec; ++i) {
    Sec s;
    s.role = r.get<uint8_t>();
    if (s.role > 2) throw FormatError("bad section role in WireBlock");
    s.name = r.get_string();
    s.centering = static_cast<mesh::Centering>(r.get<uint8_t>());
    s.ncomp = r.get<int32_t>();
    if (s.role == kRoleField && s.ncomp < 1)
      throw FormatError("bad field component count in WireBlock");
    s.count = r.get<uint64_t>();
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: reserved above; bounded
    // per-block section metadata.
    p.sections.push_back(std::move(s));
  }
  // Lay the payload out; every section must fit in the remaining bytes
  // (guards both truncation and oversized counts before any allocation).
  uint64_t off = r.position();
  for (Sec& s : p.sections) {
    const size_t esz = elem_size(s.role);
    if (s.count > (n - off) / esz)
      throw FormatError("wire payload truncated in WireBlock");
    s.offset = off;
    s.bytes = s.count * esz;
    off += s.bytes;
  }
  // Structural validation shared by both consumers.
  if (p.kind == 2) {
    if (p.sections.size() != 1 || p.sections[0].role != kRoleField)
      throw FormatError("field WireBlock must carry exactly one field");
  } else {
    if (p.sections.empty() || p.sections[0].role != kRoleCoords)
      throw FormatError("WireBlock lacks a coords section");
    const size_t ngeo =
        p.mesh_kind == mesh::MeshKind::kUnstructured ? 2 : 1;
    if (ngeo == 2 &&
        (p.sections.size() < 2 || p.sections[1].role != kRoleConn))
      throw FormatError("unstructured WireBlock lacks connectivity");
    for (size_t i = ngeo; i < p.sections.size(); ++i)
      if (p.sections[i].role != kRoleField)
        throw FormatError("unexpected geometry section in WireBlock");
    if (p.kind == 1 && p.sections.size() != ngeo)
      throw FormatError("mesh WireBlock must not carry fields");
  }
  return p;
}

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

BufferChain build_chain(int pane_id, uint8_t kind,
                        const mesh::MeshBlock* geo,
                        std::span<const mesh::Field> fields) {
  BufferChain chain;
  build_chain_into(pane_id, kind, geo, fields, nullptr, chain);
  return chain;
}

/// Decodes a float64 payload section.
std::vector<double> read_f64(const unsigned char* base, const Sec& s) {
  std::vector<double> v(static_cast<size_t>(s.count));
  if constexpr (roc::detail::kHostLittleEndian) {
    if (!v.empty()) std::memcpy(v.data(), base + s.offset, s.bytes);
  } else {
    ByteReader r(base + s.offset, static_cast<size_t>(s.bytes));
    for (auto& x : v) x = r.get<double>();
  }
  return v;
}

std::vector<int32_t> read_i32(const unsigned char* base, const Sec& s) {
  std::vector<int32_t> v(static_cast<size_t>(s.count));
  if constexpr (roc::detail::kHostLittleEndian) {
    if (!v.empty()) std::memcpy(v.data(), base + s.offset, s.bytes);
  } else {
    ByteReader r(base + s.offset, static_cast<size_t>(s.bytes));
    for (auto& x : v) x = r.get<int32_t>();
  }
  return v;
}

}  // namespace

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
  build_chain_into(block.id(), 2, nullptr, {&block.field(attribute), 1},
                   pool, out);
}

uint64_t WireBlock::payload_bytes() const {
  if (kind_ == Kind::kField) return field_.data.size() * sizeof(double);
  return block_.payload_bytes();
}

std::vector<unsigned char> WireBlock::serialize() const {
  if (kind_ == Kind::kField)
    return build_chain(pane_id_, 2, nullptr, {&field_, 1}).to_vector();
  return build_chain(pane_id_, static_cast<uint8_t>(kind_), &block_,
                     block_.fields())
      .to_vector();
}

// ROC_COLD: the materialising deserialize is the reference the zero-copy
// path is tested against; the server's receive path keeps a WireBlockView
// over the wire bytes instead.
ROC_COLD WireBlock WireBlock::deserialize(
    const std::vector<unsigned char>& bytes) {
  const Parsed p = parse_wire(bytes.data(), bytes.size());
  const unsigned char* base = bytes.data();

  WireBlock wb;
  wb.pane_id_ = p.pane_id;
  wb.kind_ = static_cast<Kind>(p.kind);

  if (wb.kind_ == Kind::kField) {
    const Sec& s = p.sections[0];
    wb.field_.name = s.name;
    wb.field_.centering = s.centering;
    wb.field_.ncomp = s.ncomp;
    wb.field_.data = read_f64(base, s);
    return wb;
  }

  const Sec& cs = p.sections[0];
  size_t nfield_start = 1;
  if (p.mesh_kind == mesh::MeshKind::kStructured) {
    // Validate before the factory allocates: coords (bounded by the wire
    // buffer) must agree with the node dims, which bounds the allocation.
    const auto d0 = static_cast<uint64_t>(p.node_dims[0]);
    const auto d1 = static_cast<uint64_t>(p.node_dims[1]);
    const auto d2 = static_cast<uint64_t>(p.node_dims[2]);
    if (p.node_dims[0] < 2 || p.node_dims[1] < 2 || p.node_dims[2] < 2 ||
        static_cast<unsigned __int128>(cs.count) !=
            3 * static_cast<unsigned __int128>(d0) * d1 * d2)
      throw FormatError("coords do not match node dims in WireBlock");
    wb.block_ = mesh::MeshBlock::structured(p.pane_id, p.node_dims);
  } else {
    if (cs.count % 3 != 0)
      throw FormatError("coords count not divisible by 3 in WireBlock");
    const Sec& ns = p.sections[1];
    // The factory validates connectivity (multiple of 4, node refs in
    // range) and throws on violation.
    wb.block_ = mesh::MeshBlock::unstructured(
        p.pane_id, static_cast<size_t>(cs.count / 3), read_i32(base, ns));
    nfield_start = 2;
  }
  wb.block_.coords() = read_f64(base, cs);

  for (size_t i = nfield_start; i < p.sections.size(); ++i) {
    const Sec& s = p.sections[i];
    mesh::Field& f = wb.block_.add_field(s.name, s.centering, s.ncomp);
    f.data = read_f64(base, s);
  }
  return wb;
}

// ROC_COLD: companion of the legacy deserialize above -- writes from a
// materialised WireBlock; the hot path uses WireBlockView::write_to.
ROC_COLD void WireBlock::write_to(shdf::Writer& w, const std::string& window,
                                  double time) const {
  switch (kind_) {
    case Kind::kAll:
      roccom::write_block(w, window, block_, "all", time);
      break;
    case Kind::kMesh:
      roccom::write_block(w, window, block_, "mesh", time);
      break;
    case Kind::kField:
      w.add_dataset(
          roccom::field_def(window, pane_id_, field_.name, field_.centering,
                            field_.ncomp, field_.data.size(), time),
          field_.data.data());
      break;
  }
}

WireBlockView WireBlockView::parse(SharedBuffer wire) {
  Parsed p = parse_wire(wire.data(), wire.size());
  WireBlockView v;
  v.wire_ = std::move(wire);
  v.pane_id_ = p.pane_id;
  v.kind_ = p.kind;
  v.mesh_kind_ = p.mesh_kind;
  v.node_dims_ = p.node_dims;
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: bounded per-block section
  // table, one per received block; entries are moved, not copied.
  v.sections_.reserve(p.sections.size());
  for (Sec& s : p.sections) {
    Section out;
    out.role = s.role;
    out.name = std::move(s.name);
    out.centering = s.centering;
    out.ncomp = s.ncomp;
    out.count = s.count;
    out.offset = s.offset;
    out.bytes = s.bytes;
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: reserved above; moved
    // entries of the bounded per-block section table.
    v.sections_.push_back(std::move(out));
  }
  if (v.kind_ != 2) v.node_count_ = v.sections_[0].count / 3;
  return v;
}

uint64_t WireBlockView::payload_bytes() const {
  uint64_t n = 0;
  for (const Section& s : sections_) n += s.bytes;
  return n;
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
  roccom::block_prefix_into(window, pane_id_, sc.prefix);
  const unsigned char* base = wire_.data();
  auto put = [&](const Section& s, const shdf::DatasetDef& def) {
    sc.chain.clear();
    sc.chain.append_borrowed(base + s.offset, static_cast<size_t>(s.bytes));
    w.put_dataset(def, sc.chain);
  };
  if (kind_ == 2) {
    const Section& s = sections_[0];
    roccom::field_def_into(sc.prefix, s.name, s.centering, s.ncomp, s.count,
                           time, sc.def);
    put(s, sc.def);
    return;
  }
  const Section& cs = sections_[0];
  roccom::coords_def_into(sc.prefix, pane_id_, mesh_kind_, node_dims_,
                          node_count_, time, sc.geo_def);
  put(cs, sc.geo_def);
  size_t next = 1;
  if (mesh_kind_ == mesh::MeshKind::kUnstructured) {
    const Section& ns = sections_[next++];
    roccom::connectivity_def_into(sc.prefix, ns.count / 4, sc.def);
    put(ns, sc.def);
  }
  for (; next < sections_.size(); ++next) {
    const Section& s = sections_[next];
    roccom::field_def_into(sc.prefix, s.name, s.centering, s.ncomp, s.count,
                           time, sc.def);
    put(s, sc.def);
  }
}

}  // namespace roc::rocpanda
