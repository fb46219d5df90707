#pragma once
/// \file blockio.h
/// \brief Mapping between data blocks (panes) and SHDF datasets.
///
/// The paper (§4): "HDF files generated by GENx are also organized by data
/// blocks, with data from different arrays in the same data block stored in
/// neighboring HDF datasets".  This module implements that layout contract,
/// shared by Rochdf (which writes local panes) and the Rocpanda servers
/// (which write blocks collected from clients):
///
///   <window>/block_<id, 6 digits>/coords        float64 [nnodes, 3]
///   <window>/block_<id>/connectivity            int32   [nelems, 4]   (unstructured)
///   <window>/block_<id>/field:<name>            float64 [nentities, ncomp]
///
/// The coords dataset carries the block manifest as attributes (mesh kind,
/// node dims, pane id, time stamp), so every file is self-describing and a
/// reader — Rocketeer in the paper, shdf_inspect and the restart path here —
/// can rebuild the block without out-of-band metadata.
///
/// A snapshot is every file of one basename, whichever service wrote it
/// (snapshot_files): the blocks in those files (blocks_in_file) are the
/// snapshot, independent of how many processes wrote it.

#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mesh/mesh_block.h"
#include "shdf/reader.h"
#include "shdf/writer.h"
#include "vfs/vfs.h"

namespace roc::roccom {

/// Dataset-name prefix of one block's group.
[[nodiscard]] std::string block_prefix(const std::string& window,
                                       int pane_id);

/// In-place variant: rebuilds `out` reusing its retained capacity (hot
/// marshalling loops format the prefix once per block, allocation-free in
/// steady state).
void block_prefix_into(const std::string& window, int pane_id,
                       std::string& out);

// --- DatasetDef builders ---------------------------------------------------
// Shared by the MeshBlock write path below and the zero-copy pass-through
// path (WireBlockView), so both produce byte-identical datasets from the
// same scalars.  Each rebuilds a caller-owned scratch DatasetDef, reusing
// its name/dims/attribute storage: a loop writing many datasets through one
// scratch def allocates nothing in steady state (rocanalyze R8; verified by
// the runtime alloc interposer).  `prefix` is the block group prefix from
// block_prefix_into.

/// Coordinates dataset ([node_count, 3] float64) carrying the block
/// manifest attributes (kind, pane_id, time, node_dims).
void coords_def_into(const std::string& prefix, int pane_id,
                     mesh::MeshKind kind,
                     const std::array<int, 3>& node_dims, uint64_t node_count,
                     double time, shdf::DatasetDef& def);

/// Connectivity dataset ([element_count, 4] int32, unstructured blocks).
void connectivity_def_into(const std::string& prefix, uint64_t element_count,
                           shdf::DatasetDef& def);

/// Field dataset ([value_count / ncomp, ncomp] float64) with centering and
/// time attributes.
void field_def_into(const std::string& prefix, const std::string& field,
                    mesh::Centering centering, int ncomp,
                    uint64_t value_count, double time,
                    shdf::DatasetDef& def);

/// Writes the selected attribute ("all", "mesh", or a field name) of one
/// block into `w`, uncompressed.
void write_block(shdf::Writer& w, const std::string& window,
                 const mesh::MeshBlock& block, const std::string& attribute,
                 double time);

/// The one owner of a service's open snapshot file.  The first open() of a
/// path creates or truncates it, later ones append; opening another path
/// closes (commits) the open one.  The directory kind is chosen here:
/// kLinear on a substrate that models the paper's platform, kIndexed
/// (directory written once, at close) elsewhere.  Not thread-safe, except
/// files_created().
class SnapshotFiles {
 public:
  explicit SnapshotFiles(vfs::FileSystem& fs) : fs_(fs) {}

  /// Writer for `path`, opening it if it is not the open file.
  [[nodiscard]] shdf::Writer& open(const std::string& path);
  /// Writes the open file's queued datasets (shdf::Writer::write_queued).
  void write_queued();
  /// Closes the open file, if any; it is dropped even if the close throws.
  void close();
  /// Drops the open file, if any, without committing it
  /// (shdf::Writer::abandon): it keeps its last committed state.
  void abandon() noexcept;

  /// Files created (first touches) so far; safe from any thread.
  [[nodiscard]] uint64_t files_created() const { return created_; }

 private:
  vfs::FileSystem& fs_;
  std::set<std::string> started_;
  std::unique_ptr<shdf::Writer> writer_;
  std::string path_;  ///< Path of writer_.
  std::atomic<uint64_t> created_{0};
};

/// Every file of snapshot `base` under `prefix`, sorted: the per-process
/// files `<prefix><base>_p<digits>.shdf` Rochdf writes and the per-server
/// files `<prefix><base>_s<digits>.shdf` Rocpanda writes (the services'
/// checkpoints are interchangeable).  Names match exactly, so snapshot
/// "state" never includes the files of snapshot "state_post".
[[nodiscard]] std::vector<std::string> snapshot_files(
    vfs::FileSystem& fs, const std::string& prefix, const std::string& base);

/// One block stored in a file.
struct BlockRef {
  std::string window;
  int pane_id = -1;
};

/// Every block in the file, ordered by window then pane id, from one pass
/// over the dataset directory.
[[nodiscard]] std::vector<BlockRef> blocks_in_file(const shdf::Reader& r);

/// Pane ids of `window` present in the file, ascending.
[[nodiscard]] std::vector<int> pane_ids_in_file(const shdf::Reader& r,
                                                const std::string& window);

/// Reconstructs a complete block (geometry + every stored field).
[[nodiscard]] mesh::MeshBlock read_block(const shdf::Reader& r,
                                         const std::string& window,
                                         int pane_id);

/// Fills the selected attribute of an existing block from the file;
/// validates that stored sizes match the block.
void read_into_block(const shdf::Reader& r, const std::string& window,
                     const std::string& attribute, mesh::MeshBlock& block);

/// Simulated-time stamp stored with the block, if any.
[[nodiscard]] double block_time(const shdf::Reader& r,
                                const std::string& window, int pane_id);

}  // namespace roc::roccom
