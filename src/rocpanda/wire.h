#pragma once
/// \file wire.h
/// \brief Rocpanda's client/server message protocol.
///
/// All traffic flows over the world communicator with the tags below (all
/// far below comm::kReservedTagBase).  Messages between one client and its
/// server are non-overtaking, which the protocol relies on: a WriteBegin
/// header is followed by exactly `nblocks` WriteBlock messages from the
/// same client.
///
/// A WireBlock is the marshalled unit of one data block's selected
/// attribute ("all" = geometry + every field; "mesh" = geometry only; a
/// field name = that field's values only).  Blocks are sent one message
/// per block so the server can buffer, spill, and probe for new requests
/// *between* blocks — the granularity active buffering needs (paper §6.1).

#include <array>
#include <string>
#include <vector>

#include "mesh/mesh_block.h"
#include "shdf/writer.h"
#include "util/buffer.h"

namespace roc::rocpanda {

// --- protocol tags (world communicator) -----------------------------------
inline constexpr int kTagWriteBegin = 101;  ///< client -> server, WriteHeader
inline constexpr int kTagWriteBlock = 102;  ///< client -> server, WireBlock
inline constexpr int kTagWriteAck = 103;    ///< server -> client, empty
inline constexpr int kTagSyncReq = 104;     ///< client -> server, empty
inline constexpr int kTagSyncAck = 105;     ///< server -> client, empty
inline constexpr int kTagReadBegin = 106;   ///< client -> server, ReadHeader
inline constexpr int kTagReadPlan = 107;    ///< server -> client, u32 count
inline constexpr int kTagReadBlock = 108;   ///< server -> client, MeshBlock
inline constexpr int kTagListReq = 109;     ///< client -> server, file name
inline constexpr int kTagListAck = 110;     ///< server -> client, i32 ids
inline constexpr int kTagShutdown = 111;    ///< client -> server, empty

/// Header announcing one collective write request from one client.
///
/// Carries the client's causal trace context (trace.h): the server adopts
/// it for every span triggered by this request — including background
/// writes performed long after the ack — so traced runs stitch the
/// server-side work to the client span that caused it.  Zero ids mean
/// "untraced"; the fields always travel (fixed cost: 16 bytes).
struct WriteHeader {
  std::string file;       ///< Snapshot basename.
  std::string window;
  std::string attribute;  ///< "all" | "mesh" | field name.
  double time = 0;
  uint32_t nblocks = 0;   ///< WriteBlock messages that follow.
  uint64_t trace_id = 0;  ///< Client trace id (0 = untraced).
  uint64_t span_id = 0;   ///< Client span the request belongs to.

  [[nodiscard]] std::vector<unsigned char> serialize() const;
  static WriteHeader deserialize(const void* data, size_t n);
  static WriteHeader deserialize(const std::vector<unsigned char>& bytes) {
    return deserialize(bytes.data(), bytes.size());
  }
};

/// Header announcing one client's restart request.
struct ReadHeader {
  std::string file;
  std::string window;  ///< Restrict to one window; empty = any window.
  std::vector<int32_t> pane_ids;

  [[nodiscard]] std::vector<unsigned char> serialize() const;
  static ReadHeader deserialize(const void* data, size_t n);
  static ReadHeader deserialize(const std::vector<unsigned char>& bytes) {
    return deserialize(bytes.data(), bytes.size());
  }
};

/// Marshalled attribute data of one block.
///
/// Wire format (v2, little-endian): a self-describing header — pane id,
/// kind, mesh metadata, and a section table (role, name, centering, ncomp,
/// element type, count per array) — followed by the raw array payloads
/// concatenated in table order.  Keeping array bytes raw and contiguous is
/// what enables the two zero-copy paths:
///  * `serialize_chain` emits a BufferChain whose payload segments alias
///    the caller's arrays (no marshalling copy on the client), and
///  * `WireBlockView` parses received bytes in place and streams dataset
///    payloads straight into shdf::Writer (no MeshBlock on the server).
class WireBlock {
 public:
  /// Extracts the selected attribute from `block` (copies; the legacy
  /// materialising path, kept for restart/compatibility and as the
  /// reference the zero-copy path is tested against).
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
  static WireBlock deserialize(const std::vector<unsigned char>& bytes);

  [[nodiscard]] int pane_id() const { return pane_id_; }
  /// Approximate payload size (for buffer accounting).
  [[nodiscard]] uint64_t payload_bytes() const;

  /// Writes this block's datasets into `w` under `window` (the same layout
  /// contract as roccom::write_block).
  void write_to(shdf::Writer& w, const std::string& window,
                double time) const;

 private:
  friend class WireBlockView;
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
  BufferChain chain;      ///< One borrowed payload segment per dataset.
};

/// Non-materialising view over one received WireBlock.  parse() reads only
/// the header; write_to() streams the dataset payloads directly from the
/// retained wire bytes (which the view keeps alive) into the writer —
/// the server's pass-through path.
class WireBlockView {
 public:
  /// Parses the header and section table; throws FormatError on malformed
  /// bytes.  The view shares ownership of `wire` (zero-copy).
  static WireBlockView parse(SharedBuffer wire);

  [[nodiscard]] int pane_id() const { return pane_id_; }
  [[nodiscard]] uint64_t payload_bytes() const;
  [[nodiscard]] const SharedBuffer& wire_bytes() const { return wire_; }

  /// Writes this block's datasets into `w`, byte-identical to
  /// `WireBlock::deserialize(bytes).write_to(...)`, without constructing a
  /// MeshBlock: each dataset payload is a chain segment aliasing the wire
  /// bytes, gathered to disk by shdf::Writer::put_dataset.  Passing a
  /// caller-retained `scratch` makes steady-state writes allocation-free;
  /// with null a call-local scratch is used.
  void write_to(shdf::Writer& w, const std::string& window, double time,
                WriteScratch* scratch = nullptr) const;

 private:
  struct Section {
    uint8_t role = 0;  ///< 0 = coords, 1 = connectivity, 2 = field.
    std::string name;  ///< Field name (empty for geometry sections).
    mesh::Centering centering = mesh::Centering::kNode;
    int32_t ncomp = 1;
    uint64_t count = 0;   ///< Elements (not bytes).
    uint64_t offset = 0;  ///< Absolute byte offset into the wire buffer.
    uint64_t bytes = 0;
  };

  SharedBuffer wire_;
  int pane_id_ = -1;
  uint8_t kind_ = 0;
  mesh::MeshKind mesh_kind_ = mesh::MeshKind::kStructured;
  std::array<int, 3> node_dims_{0, 0, 0};
  uint64_t node_count_ = 0;
  std::vector<Section> sections_;
};

}  // namespace roc::rocpanda
