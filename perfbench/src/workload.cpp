#include "workload.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <set>

#include "mesh/partition.h"
#include "roccom/blockio.h"
#include "shdf/reader.h"
#include "util/rng.h"
#include "vfs/vfs.h"

namespace perfbench {

namespace {

using roc::mesh::MeshBlock;

// Every service writes the whole snapshot, so block counts divide evenly
// among Rochdf's 4 ranks, T-Rochdf's 2 and Rocpanda's 3 clients where the
// shape allows it (bulk: 48 blocks).  Bulk moves ~47 MB per snapshot so that
// wake-up latencies on a busy host stay a small share of its timings.
constexpr Workload kWorkloads[] = {
    // Few 1 MB fluid blocks (the Fig. 3(a) shape): bytes through crc64, the
    // sendv gather and vfs writes, little shdf metadata.
    {.name = "bulk",
     .rocket = false,
     .cylinder_segments = 12,
     .cylinder_blocks_per_segment = 4,
     .cylinder_nodes = 25,
     .fluid_blocks = 0,
     .solid_blocks = 0,
     .rocket_nodes = 0,
     .size_jitter = 0,
     .interval_s = 0.175,
     .loop_share = 0.22,
     .commit_share = 0.04,
     .restart_share = 0.10},
    // Hundreds of small jittered rocket blocks in two windows: the kLinear
    // directory, per-dataset headers and per-block messages, few bytes.
    {.name = "fine",
     .rocket = true,
     .cylinder_segments = 0,
     .cylinder_blocks_per_segment = 0,
     .cylinder_nodes = 0,
     .fluid_blocks = 160,
     .solid_blocks = 80,
     .rocket_nodes = 6,
     .size_jitter = 0.2,
     .interval_s = 0.15,
     .loop_share = 0.22,
     .commit_share = 0.04,
     .restart_share = 0.10},
    // Mostly N-to-M restarts of a rocket checkpoint through Rocpanda and
    // Rochdf: shdf reader, CRC verify, vfs reads, block shipping.
    {.name = "restart",
     .rocket = true,
     .cylinder_segments = 0,
     .cylinder_blocks_per_segment = 0,
     .cylinder_nodes = 0,
     .fluid_blocks = 48,
     .solid_blocks = 32,
     .rocket_nodes = 12,
     .size_jitter = 0.2,
     .interval_s = 0.05,
     .loop_share = 0.08,
     .commit_share = 0.03,
     .restart_share = 0.32},
};

bool same_bytes(const void* a, const void* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

template <typename T>
bool same_vector(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && same_bytes(a.data(), b.data(),
                                            a.size() * sizeof(T));
}

std::map<int, const MeshBlock*> index_by_id(const Snapshot& s) {
  std::map<int, const MeshBlock*> out;
  for (const auto& w : s)
    for (const auto& b : w.blocks) out[b.id()] = &b;
  return out;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

Snapshot generate(const Workload& w, uint64_t seed) {
  Snapshot s;
  if (w.rocket) {
    roc::mesh::LabScaleSpec spec;
    spec.fluid_blocks = w.fluid_blocks;
    spec.solid_blocks = w.solid_blocks;
    spec.base_block_nodes = w.rocket_nodes;
    spec.size_jitter = w.size_jitter;
    spec.seed = seed;
    roc::mesh::RocketMesh m = roc::mesh::make_lab_scale_rocket(spec);
    s.push_back({"fluid", std::move(m.fluid)});
    s.push_back({"solid", std::move(m.solid)});
  } else {
    roc::mesh::ScalabilitySpec spec;
    spec.segments = w.cylinder_segments;
    spec.blocks_per_segment = w.cylinder_blocks_per_segment;
    spec.block_nodes = w.cylinder_nodes;
    spec.seed = seed;
    s.push_back({"fluid", roc::mesh::make_extendible_cylinder(spec)});
  }
  // The generators leave fields zero; give them seeded values so the
  // read-back checks compare real data.
  roc::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& win : s)
    for (auto& b : win.blocks)
      for (auto& f : b.fields())
        for (double& v : f.data) v = rng.next_double();
  return s;
}

uint64_t payload_bytes(const Snapshot& s) {
  uint64_t n = 0;
  for (const auto& w : s)
    for (const auto& b : w.blocks) n += b.payload_bytes();
  return n;
}

Snapshot local_share(const Snapshot& s, int rank, int nranks) {
  Snapshot out;
  for (const auto& w : s) {
    const auto part = roc::mesh::partition_blocks(w.blocks, nranks);
    WindowData mine{w.name, {}};
    for (size_t i : part[static_cast<size_t>(rank)])
      mine.blocks.push_back(w.blocks[i]);
    out.push_back(std::move(mine));
  }
  return out;
}

void stamp(std::vector<MeshBlock>& blocks, int k) {
  for (auto& b : blocks) b.fields().front().data.front() = k;
}

bool same_block(const MeshBlock& got, const MeshBlock& want, int k) {
  if (got.id() != want.id() || got.kind() != want.kind() ||
      got.node_dims() != want.node_dims() ||
      got.node_count() != want.node_count() ||
      !same_vector(got.coords(), want.coords()) ||
      !same_vector(got.connectivity(), want.connectivity()) ||
      got.fields().size() != want.fields().size())
    return false;
  for (size_t i = 0; i < want.fields().size(); ++i) {
    const roc::mesh::Field& w = want.fields()[i];
    const roc::mesh::Field* g = got.find_field(w.name);
    if (g == nullptr || g->centering != w.centering || g->ncomp != w.ncomp ||
        g->data.size() != w.data.size() || w.data.empty())
      return false;
    // The first value of the first field carries the snapshot stamp.
    const size_t skip = i == 0 ? 1 : 0;
    const double first = i == 0 ? static_cast<double>(k) : w.data[0];
    if (!same_bytes(&g->data[0], &first, sizeof(double)) ||
        !same_bytes(g->data.data() + skip, w.data.data() + skip,
                    (w.data.size() - skip) * sizeof(double)))
      return false;
  }
  return true;
}

void check_blocks(const std::vector<MeshBlock>& got,
                  const std::vector<int>& ids, const Snapshot& expected, int k,
                  Tally& tally) {
  const auto want = index_by_id(expected);
  std::map<int, const MeshBlock*> by_id;
  for (const auto& b : got) by_id[b.id()] = &b;
  if (by_id.size() != got.size() || got.size() != ids.size())
    tally.record(false);  // duplicates or strays
  for (int id : ids) {
    const auto g = by_id.find(id);
    const auto w = want.find(id);
    tally.record(g != by_id.end() && w != want.end() &&
                 same_block(*g->second, *w->second, k));
  }
}

uint64_t check_snapshot_files(const std::string& dir, const std::string& base,
                              const Snapshot& expected, int k, Tally& tally) {
  uint64_t datasets = 0;
  std::vector<MeshBlock> got;
  try {
    roc::vfs::PosixFileSystem fs(dir);
    const auto files = fs.list(base + "_");
    for (const auto& f : files) {
      const roc::shdf::Reader r(fs, f);
      if (datasets == 0) datasets = r.dataset_count();
      for (const auto& w : expected)
        for (int id : roc::roccom::pane_ids_in_file(r, w.name))
          got.push_back(roc::roccom::read_block(r, w.name, id));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: reading back %s/%s failed: %s\n",
                 dir.c_str(), base.c_str(), e.what());
    tally.record(false);
  }
  std::vector<int> ids;
  for (const auto& [id, _] : index_by_id(expected)) ids.push_back(id);
  check_blocks(got, ids, expected, k, tally);
  return datasets;
}

}  // namespace perfbench
