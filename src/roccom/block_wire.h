#pragma once
/// \file block_wire.h
/// \brief The block wire format: how one data block travels between
/// processes.
///
/// Every block message uses it: Rocpanda writes (client -> server),
/// T-Rochdf's buffered snapshots, Rocpanda restart replies (server ->
/// client) and GenxRun's load-balancing migration.  It carries one block's
/// selected attribute: "all" (geometry + every field), "mesh" (geometry
/// only) or a field name (that field's values only).  Like the on-disk
/// layout (blockio.h) it is fixed by the format, not by who sends it.
///
/// Format v2 (little-endian): a self-describing header -- pane id, kind,
/// mesh metadata, and a section table (role, name, centering, ncomp,
/// element count per array) -- followed by the raw array payloads
/// concatenated in table order.  Keeping array bytes raw and contiguous is
/// what makes every consumer copy at most once:
///  * `WireBlock::serialize_chain` emits a BufferChain whose payload
///    segments alias the caller's arrays (no marshalling copy);
///  * `WireBlockView` parses received bytes in place and streams dataset
///    payloads straight into shdf::Writer (no MeshBlock on the server);
///  * `decode_block` writes each array once, into the MeshBlock.

#include <array>
#include <string>
#include <vector>

#include "mesh/mesh_block.h"
#include "shdf/writer.h"
#include "util/buffer.h"

namespace roc::roccom {

/// Decodes an "all" or "mesh" wire block into a MeshBlock.  Throws
/// FormatError unless the arrays fit the block's shape: coords match the
/// node dims, connectivity references nodes of the block, and each field
/// carries ncomp x entity_count values (or none: an unpopulated field, as
/// the write path and read_block also carry).  Each array is written once,
/// into the storage the MeshBlock factory sized.
[[nodiscard]] mesh::MeshBlock decode_block(const void* data, size_t n);

/// Materialised attribute data of one block: the reference the zero-copy
/// paths (serialize_chain, WireBlockView) are tested against.
class WireBlock {
 public:
  /// Extracts the selected attribute from `block` (copies).
  static WireBlock from_block(const mesh::MeshBlock& block,
                              const std::string& attribute);

  /// Zero-copy marshalling: header bytes are owned by the chain, array
  /// payload segments alias `block`'s storage.  The chain's bytes equal
  /// `from_block(block, attribute).serialize()`; `block` must stay
  /// unmodified until the chain is consumed (e.g. until sendv returns).
  [[nodiscard]] static BufferChain serialize_chain(
      const mesh::MeshBlock& block, const std::string& attribute);

  /// Allocation-disciplined variant for hot loops: the header segment is
  /// sealed through `pool` (recycled storage) instead of a fresh adopt,
  /// and `out` is cleared and refilled, reusing its segment-list capacity.
  /// `pool` may be null (fresh header allocation, as serialize_chain).
  static void serialize_chain_into(const mesh::MeshBlock& block,
                                   const std::string& attribute,
                                   BufferPool* pool, BufferChain& out);

  [[nodiscard]] std::vector<unsigned char> serialize() const;
  /// "all" and "mesh" blocks decode through decode_block.
  static WireBlock deserialize(const std::vector<unsigned char>& bytes);

  [[nodiscard]] int pane_id() const { return pane_id_; }

  /// Writes this block's datasets into `w` under `window` (the same layout
  /// contract as write_block).
  void write_to(shdf::Writer& w, const std::string& window,
                double time) const;

 private:
  enum class Kind : uint8_t { kAll = 0, kMesh = 1, kField = 2 };

  int pane_id_ = -1;
  Kind kind_ = Kind::kAll;
  // kAll / kMesh: a (possibly field-less) MeshBlock.
  mesh::MeshBlock block_;
  // kField: one field's values.
  mesh::Field field_;
};

/// Reusable scratch for WireBlockView::write_to.  A caller writing many
/// blocks through one writer keeps one of these alive so the per-dataset
/// prefix/def/chain storage is recycled instead of reallocated — the
/// server's zero-alloc steady state (rocanalyze R8).
struct WriteScratch {
  std::string prefix;     ///< Block group prefix, rebuilt per block.
  shdf::DatasetDef def;   ///< Field/connectivity definition, rebuilt per
                          ///< dataset.
  /// Coords definition, kept separate from `def` so its vector-valued
  /// node_dims attribute survives between blocks (field_def_into shrinks
  /// the attribute list, which would destroy the retained vector and
  /// force a reallocation on every coords rebuild).
  shdf::DatasetDef geo_def;
  BufferChain chain;      ///< One owned payload slice per dataset.
};

/// Non-materialising view over one received wire block.  parse() reads
/// only the header; write_to() streams the dataset payloads directly from
/// the retained wire bytes (which the view keeps alive) into the writer —
/// the pass-through path of the Rocpanda server and the T-Rochdf worker.
class WireBlockView {
 public:
  /// Parses the header and section table; throws FormatError on malformed
  /// bytes.  The view shares ownership of `wire` (zero-copy).
  static WireBlockView parse(SharedBuffer wire);

  [[nodiscard]] const SharedBuffer& wire_bytes() const { return wire_; }

  /// Writes this block's datasets into `w`, byte-identical to
  /// `WireBlock::deserialize(bytes).write_to(...)`, without constructing a
  /// MeshBlock: each dataset payload is an owned slice of the wire bytes,
  /// which shdf::Writer::put_dataset may queue and gather to disk with
  /// later datasets.  Passing a
  /// caller-retained `scratch` makes steady-state writes allocation-free;
  /// with null a call-local scratch is used.
  void write_to(shdf::Writer& w, const std::string& window, double time,
                WriteScratch* scratch = nullptr) const;

 private:
  friend class WireBlock;
  friend mesh::MeshBlock decode_block(const void* data, size_t n);

  struct Section {
    uint8_t role = 0;  ///< 0 = coords, 1 = connectivity, 2 = field.
    std::string name;  ///< Field name (empty for geometry sections).
    mesh::Centering centering = mesh::Centering::kNode;
    int32_t ncomp = 1;
    uint64_t count = 0;   ///< Elements (not bytes).
    uint64_t offset = 0;  ///< Absolute byte offset into the wire bytes.
    uint64_t bytes = 0;
  };

  /// Parses and validates the header of `[data, data + n)` into every
  /// member but `wire_`.
  void parse_header(const unsigned char* data, size_t n);
  /// Decodes the "all"/"mesh" block this header describes from the wire
  /// bytes at `data` (the decode_block contract).
  [[nodiscard]] mesh::MeshBlock decode(const unsigned char* data) const;

  SharedBuffer wire_;
  int pane_id_ = -1;
  uint8_t kind_ = 0;
  mesh::MeshKind mesh_kind_ = mesh::MeshKind::kStructured;
  std::array<int, 3> node_dims_{0, 0, 0};
  uint64_t node_count_ = 0;
  std::vector<Section> sections_;
};

}  // namespace roc::roccom
