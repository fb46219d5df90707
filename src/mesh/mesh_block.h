#pragma once
/// \file mesh_block.h
/// \brief Mesh blocks: the unit of data distribution in GENx (paper §4).
///
/// A mesh block carries its geometry (coordinates, and connectivity for
/// unstructured blocks) plus any number of node- or element-centred fields.
/// A *data block* in the paper's sense is a mesh block together with its
/// fields and metadata; blocks of the same material share a schema but can
/// have different sizes, and the set of blocks changes over time (adaptive
/// refinement), which is exactly the irregular distribution the I/O stack
/// must support.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.h"

namespace roc::mesh {

enum class MeshKind : uint8_t {
  kStructured = 0,   ///< Logically Cartesian (ni × nj × nk nodes).
  kUnstructured = 1, ///< Tetrahedral, explicit connectivity.
};

enum class Centering : uint8_t {
  kNode = 0,
  kElement = 1,
};

/// A named per-node or per-element variable with `ncomp` components.
struct Field {
  std::string name;
  Centering centering = Centering::kNode;
  int ncomp = 1;
  std::vector<double> data;  ///< ncomp * entity_count values.
};

/// One mesh block (a value type).  Blocks travel between processes in the
/// block wire format (roccom/block_wire.h); mesh has no encoding of its own.
class MeshBlock {
 public:
  /// Structured block with ni × nj × nk nodes.
  static MeshBlock structured(int block_id, std::array<int, 3> node_dims);

  /// Unstructured tetrahedral block; `connectivity` holds 4 node indices
  /// per element.
  static MeshBlock unstructured(int block_id, size_t node_count,
                                std::vector<int32_t> connectivity);

  MeshBlock() = default;

  [[nodiscard]] int id() const { return id_; }
  void set_id(int id) { id_ = id; }
  [[nodiscard]] MeshKind kind() const { return kind_; }
  [[nodiscard]] const std::array<int, 3>& node_dims() const { return dims_; }

  [[nodiscard]] size_t node_count() const;
  [[nodiscard]] size_t element_count() const;

  /// xyz-interleaved node coordinates (3 * node_count()).
  [[nodiscard]] std::vector<double>& coords() { return coords_; }
  [[nodiscard]] const std::vector<double>& coords() const { return coords_; }

  [[nodiscard]] const std::vector<int32_t>& connectivity() const {
    return connectivity_;
  }

  /// Adds a zero-initialized field; name must be unique on this block.
  Field& add_field(const std::string& name, Centering centering, int ncomp);

  [[nodiscard]] Field* find_field(const std::string& name);
  [[nodiscard]] const Field* find_field(const std::string& name) const;
  /// Throws InvalidArgument if absent.
  [[nodiscard]] Field& field(const std::string& name);
  [[nodiscard]] const Field& field(const std::string& name) const;

  [[nodiscard]] std::vector<Field>& fields() { return fields_; }
  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }

  /// Entities a field of the given centering has on this block.
  [[nodiscard]] size_t entity_count(Centering c) const {
    return c == Centering::kNode ? node_count() : element_count();
  }

  /// Total payload bytes (coords + connectivity + all fields) — the size
  /// the I/O system moves for this block.
  [[nodiscard]] size_t payload_bytes() const;

  /// Order-independent fingerprint of geometry + all field values; used by
  /// restart-equivalence tests.
  [[nodiscard]] uint64_t state_checksum() const;

 private:
  int id_ = -1;
  MeshKind kind_ = MeshKind::kStructured;
  std::array<int, 3> dims_{0, 0, 0};  ///< Node dims (structured only).
  size_t node_count_ = 0;             ///< Unstructured only.
  std::vector<double> coords_;
  std::vector<int32_t> connectivity_;  ///< Unstructured only (4 per element).
  std::vector<Field> fields_;
};

/// Copies the selected attribute ("all", "mesh", or a field name) from
/// `src` into `dst`.  Both blocks must agree on structure (sizes are
/// validated); used when restart data arrives as whole blocks and must be
/// applied to registered panes.
void copy_block_attribute(const MeshBlock& src, MeshBlock& dst,
                          const std::string& attribute);

}  // namespace roc::mesh
