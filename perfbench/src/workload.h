#pragma once
/// \file workload.h
/// \brief The benchmark's workloads: generated snapshot data, how it is
/// shared among ranks, and the bit-for-bit output checks.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "mesh/generators.h"
#include "mesh/mesh_block.h"

namespace perfbench {

/// One Roccom window's worth of generated blocks.
struct WindowData {
  std::string name;
  std::vector<roc::mesh::MeshBlock> blocks;
};
/// A whole snapshot: every window every service writes.
using Snapshot = std::vector<WindowData>;

struct Workload {
  const char* name;
  /// true: the GENx lab-scale rocket (fluid + solid windows); false:
  /// Fig. 3(a)-style extendible-cylinder fluid blocks.
  bool rocket;
  int cylinder_segments;  ///< cylinder only
  int cylinder_blocks_per_segment;
  int cylinder_nodes;     ///< nodes per block dimension
  int fluid_blocks;       ///< rocket only
  int solid_blocks;
  int rocket_nodes;       ///< nominal nodes per block dimension
  /// Relative block-size variation.  Kept below the generator's default
  /// 0.4 so that the snapshot's size, and with it every timing, depends
  /// little on the seed.
  double size_jitter;
  /// Env::compute between two snapshots: about twice the Rocpanda server's
  /// time to write one (and more than the T-Rochdf writers'), so each
  /// finishes a snapshot before the next arrives even on a slowed host.
  double interval_s;
  /// Shares of --seconds: each service's snapshot loop, each commit phase
  /// (T-Rochdf, Rocpanda) and each restart loop (Rocpanda, Rochdf).
  double loop_share;
  double commit_share;
  double restart_share;
};

/// nullptr when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Generates the workload's mesh from `seed` (block-size jitter and field
/// values both derive from it).
[[nodiscard]] Snapshot generate(const Workload& w, uint64_t seed);

[[nodiscard]] uint64_t payload_bytes(const Snapshot& s);

/// Rank `rank` of `nranks`: its copy of its blocks, per window, assigned by
/// the repository's LPT partitioner over payload bytes.
[[nodiscard]] Snapshot local_share(const Snapshot& s, int rank, int nranks);

/// Marks the blocks with snapshot number `k` (first value of the first
/// field), so a read-back can tell which snapshot it got.
void stamp(std::vector<roc::mesh::MeshBlock>& blocks, int k);

/// Attempted and failed operations of a run: IoService calls plus output
/// checks.  Shared by all rank threads.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  void record(bool ok) {
    attempted.fetch_add(1);
    if (!ok) failed.fetch_add(1);
  }
};

/// True iff `got` equals generated block `want` stamped with `k`, bit for
/// bit (geometry, connectivity, every field).
[[nodiscard]] bool same_block(const roc::mesh::MeshBlock& got,
                              const roc::mesh::MeshBlock& want, int k);

/// Checks blocks returned by a restart: each must be the generated block of
/// its id stamped with `k`, and exactly the blocks in `ids` must be present.
/// Records one check per expected block.
void check_blocks(const std::vector<roc::mesh::MeshBlock>& got,
                  const std::vector<int>& ids, const Snapshot& expected, int k,
                  Tally& tally);

/// Reads every block of snapshot `base` from the files under `dir` through
/// shdf::Reader and checks it as check_blocks does, against every block of
/// `expected`.  Returns the number of datasets in the first file.
uint64_t check_snapshot_files(const std::string& dir, const std::string& base,
                              const Snapshot& expected, int k, Tally& tally);

}  // namespace perfbench
