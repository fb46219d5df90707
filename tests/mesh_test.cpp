/// \file mesh_test.cpp
/// \brief Tests for mesh blocks, generators, partitioning and refinement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "mesh/generators.h"
#include "mesh/mesh_block.h"
#include "mesh/partition.h"
#include "mesh/refine.h"

namespace roc::mesh {
namespace {

TEST(MeshBlock, StructuredCounts) {
  auto b = MeshBlock::structured(1, {4, 5, 6});
  EXPECT_EQ(b.node_count(), 120u);
  EXPECT_EQ(b.element_count(), 3u * 4u * 5u);
  EXPECT_EQ(b.coords().size(), 360u);
  EXPECT_EQ(b.kind(), MeshKind::kStructured);
}

TEST(MeshBlock, StructuredMinimumDims) {
  EXPECT_THROW(MeshBlock::structured(0, {1, 2, 2}), InvalidArgument);
  EXPECT_NO_THROW(MeshBlock::structured(0, {2, 2, 2}));
}

TEST(MeshBlock, UnstructuredCounts) {
  // Two tets sharing a face over 5 nodes.
  auto b = MeshBlock::unstructured(2, 5, {0, 1, 2, 3, 1, 2, 3, 4});
  EXPECT_EQ(b.node_count(), 5u);
  EXPECT_EQ(b.element_count(), 2u);
}

TEST(MeshBlock, ConnectivityValidation) {
  EXPECT_THROW(MeshBlock::unstructured(0, 3, {0, 1, 2, 3}), InvalidArgument);
  EXPECT_THROW(MeshBlock::unstructured(0, 4, {0, 1, 2}), InvalidArgument);
}

TEST(MeshBlock, FieldsSizedByCentering) {
  auto b = MeshBlock::structured(0, {3, 3, 3});
  b.add_field("velocity", Centering::kNode, 3);
  b.add_field("pressure", Centering::kElement, 1);
  // Look the fields up after both insertions: add_field may reallocate the
  // field table and invalidate previously returned references.
  EXPECT_EQ(b.field("velocity").data.size(), 27u * 3u);
  EXPECT_EQ(b.field("pressure").data.size(), 8u);
  EXPECT_THROW(b.add_field("velocity", Centering::kNode, 3), InvalidArgument);
  EXPECT_EQ(b.find_field("nope"), nullptr);
  EXPECT_THROW((void)b.field("nope"), InvalidArgument);
}

TEST(MeshBlock, ChecksumSensitivity) {
  auto b = MeshBlock::structured(1, {3, 3, 3});
  b.add_field("p", Centering::kElement, 1);
  const auto base = b.state_checksum();
  b.field("p").data[0] = 1e-12;
  EXPECT_NE(b.state_checksum(), base);
}

TEST(MeshBlock, ChecksumIgnoresFieldRegistrationOrder) {
  auto a = MeshBlock::structured(1, {3, 3, 3});
  a.add_field("a", Centering::kNode, 1);
  a.add_field("b", Centering::kElement, 1);
  auto b = MeshBlock::structured(1, {3, 3, 3});
  b.add_field("b", Centering::kElement, 1);
  b.add_field("a", Centering::kNode, 1);
  EXPECT_EQ(a.state_checksum(), b.state_checksum());
}

TEST(MeshBlock, CopyAttributeValidatesShape) {
  auto a = MeshBlock::structured(1, {3, 3, 3});
  a.add_field("p", Centering::kElement, 1);
  auto b = MeshBlock::structured(1, {3, 3, 4});
  b.add_field("p", Centering::kElement, 1);
  EXPECT_THROW(copy_block_attribute(a, b, "all"), InvalidArgument);

  auto c = MeshBlock::structured(1, {3, 3, 3});
  c.add_field("p", Centering::kElement, 1);
  a.field("p").data[2] = 42.0;
  a.coords()[5] = -1.0;
  copy_block_attribute(a, c, "all");
  EXPECT_EQ(c.field("p").data[2], 42.0);
  EXPECT_EQ(c.coords()[5], -1.0);

  // Single-field copy leaves the rest untouched.
  auto d = MeshBlock::structured(1, {3, 3, 3});
  d.add_field("p", Centering::kElement, 1);
  copy_block_attribute(a, d, "p");
  EXPECT_EQ(d.field("p").data[2], 42.0);
  EXPECT_EQ(d.coords()[5], 0.0);
}

// --- generators ------------------------------------------------------------

TEST(Generators, LabScaleBlockCountsAndSchema) {
  LabScaleSpec spec;
  spec.fluid_blocks = 10;
  spec.solid_blocks = 6;
  const RocketMesh mesh = make_lab_scale_rocket(spec);
  EXPECT_EQ(mesh.fluid.size(), 10u);
  EXPECT_EQ(mesh.solid.size(), 6u);
  for (const auto& b : mesh.fluid) {
    EXPECT_EQ(b.kind(), MeshKind::kStructured);
    EXPECT_NE(b.find_field("velocity"), nullptr);
    EXPECT_NE(b.find_field("pressure"), nullptr);
  }
  for (const auto& b : mesh.solid) {
    EXPECT_EQ(b.kind(), MeshKind::kUnstructured);
    EXPECT_NE(b.find_field("displacement"), nullptr);
    EXPECT_NE(b.find_field("stress"), nullptr);
  }
}

TEST(Generators, BlockIdsDenseAndUnique) {
  LabScaleSpec spec;
  spec.fluid_blocks = 8;
  spec.solid_blocks = 8;
  const RocketMesh mesh = make_lab_scale_rocket(spec);
  std::set<int> ids;
  for (const auto& b : mesh.fluid) ids.insert(b.id());
  for (const auto& b : mesh.solid) ids.insert(b.id());
  EXPECT_EQ(ids.size(), 16u);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), 15);
}

TEST(Generators, IrregularSizes) {
  // The paper's premise: blocks have different sizes.
  LabScaleSpec spec;
  spec.fluid_blocks = 16;
  spec.solid_blocks = 4;
  const RocketMesh mesh = make_lab_scale_rocket(spec);
  std::set<size_t> sizes;
  for (const auto& b : mesh.fluid) sizes.insert(b.payload_bytes());
  EXPECT_GT(sizes.size(), 4u) << "block sizes should vary";
}

TEST(Generators, DeterministicPerSeed) {
  LabScaleSpec spec;
  spec.fluid_blocks = 4;
  spec.solid_blocks = 2;
  const auto a = make_lab_scale_rocket(spec);
  const auto b = make_lab_scale_rocket(spec);
  ASSERT_EQ(a.fluid.size(), b.fluid.size());
  for (size_t i = 0; i < a.fluid.size(); ++i)
    EXPECT_EQ(a.fluid[i].state_checksum(), b.fluid[i].state_checksum());
  spec.seed = 1;
  const auto c = make_lab_scale_rocket(spec);
  EXPECT_NE(a.fluid[0].state_checksum(), c.fluid[0].state_checksum());
}

TEST(Generators, CoordinatesLieInCylinder) {
  LabScaleSpec spec;
  spec.fluid_blocks = 4;
  spec.solid_blocks = 2;
  const auto mesh = make_lab_scale_rocket(spec);
  for (const auto& b : mesh.fluid) {
    for (size_t n = 0; n < b.node_count(); ++n) {
      const double x = b.coords()[3 * n], y = b.coords()[3 * n + 1],
                   z = b.coords()[3 * n + 2];
      const double r = std::sqrt(x * x + y * y);
      EXPECT_LE(r, spec.radius + 1e-9);
      EXPECT_GE(z, -1e-9);
      EXPECT_LE(z, spec.length + 1e-9);
    }
  }
}

TEST(Generators, ScalabilityMeshUniformPerSegment) {
  ScalabilitySpec spec;
  spec.segments = 4;
  spec.blocks_per_segment = 3;
  const auto blocks = make_extendible_cylinder(spec);
  ASSERT_EQ(blocks.size(), 12u);
  // Fixed data per segment: every segment carries the same bytes.
  size_t seg0 = 0, seg3 = 0;
  for (int q = 0; q < 3; ++q) {
    seg0 += blocks[static_cast<size_t>(q)].payload_bytes();
    seg3 += blocks[static_cast<size_t>(9 + q)].payload_bytes();
  }
  EXPECT_EQ(seg0, seg3);
}

// --- partitioner -----------------------------------------------------------

TEST(Partition, EveryBlockAssignedExactlyOnce) {
  LabScaleSpec spec;
  spec.fluid_blocks = 20;
  spec.solid_blocks = 12;
  const auto mesh = make_lab_scale_rocket(spec);
  std::vector<MeshBlock> all;
  for (const auto& b : mesh.fluid) all.push_back(b);
  for (const auto& b : mesh.solid) all.push_back(b);

  const auto part = partition_blocks(all, 5);
  ASSERT_EQ(part.size(), 5u);
  std::set<size_t> seen;
  for (const auto& lst : part)
    for (size_t idx : lst) EXPECT_TRUE(seen.insert(idx).second);
  EXPECT_EQ(seen.size(), all.size());
}

TEST(Partition, BalancedWithinReason) {
  LabScaleSpec spec;
  spec.fluid_blocks = 48;
  spec.solid_blocks = 32;
  const auto mesh = make_lab_scale_rocket(spec);
  std::vector<MeshBlock> all;
  for (const auto& b : mesh.fluid) all.push_back(b);
  for (const auto& b : mesh.solid) all.push_back(b);

  const auto part = partition_blocks(all, 8);
  EXPECT_LT(partition_imbalance(all, part), 1.35);
}

TEST(Partition, MoreProcessorsThanBlocks) {
  std::vector<MeshBlock> blocks;
  blocks.push_back(MeshBlock::structured(0, {3, 3, 3}));
  const auto part = partition_blocks(blocks, 4);
  ASSERT_EQ(part.size(), 4u);
  size_t total = 0;
  for (const auto& lst : part) total += lst.size();
  EXPECT_EQ(total, 1u);
}

TEST(Partition, RebalanceNeverWorsens) {
  LabScaleSpec spec;
  spec.fluid_blocks = 30;
  spec.solid_blocks = 10;
  spec.size_jitter = 0.6;
  const auto mesh = make_lab_scale_rocket(spec);
  std::vector<MeshBlock> all;
  for (const auto& b : mesh.fluid) all.push_back(b);
  for (const auto& b : mesh.solid) all.push_back(b);

  // Deliberately bad partition: round-robin by index.
  Partition part(4);
  for (size_t i = 0; i < all.size(); ++i) part[i % 4].push_back(i);
  const double before = partition_imbalance(all, part);
  const auto moves = plan_rebalance(all, part);
  const double after = partition_imbalance(all, part);
  EXPECT_LE(after, before + 1e-12);
  // Every move references a real block.
  for (const auto& m : moves) EXPECT_LT(m.block_index, all.size());
}

// --- refinement --------------------------------------------------------------

TEST(Refine, StructuredSplitPreservesNodesOfSplitPlane) {
  auto b = MeshBlock::structured(0, {4, 6, 3});  // longest dim: j (6)
  for (size_t i = 0; i < b.coords().size(); ++i)
    b.coords()[i] = static_cast<double>(i);
  auto& f = b.add_field("p", Centering::kElement, 1);
  std::iota(f.data.begin(), f.data.end(), 0.0);

  int next_id = 100;
  auto [a, c] = split_structured(b, next_id);
  EXPECT_EQ(next_id, 102);
  EXPECT_EQ(a.id(), 100);
  EXPECT_EQ(c.id(), 101);
  // Node counts: split at j=3 -> children have j-dims 4 and 4... (3+1, 6-3).
  EXPECT_EQ(a.node_dims()[1] + c.node_dims()[1], 6 + 1);  // shared plane
  EXPECT_EQ(a.node_dims()[0], 4);
  EXPECT_EQ(c.node_dims()[2], 3);
  // Element counts conserved exactly.
  EXPECT_EQ(a.element_count() + c.element_count(), b.element_count());
}

TEST(Refine, StructuredSplitConservesElementFieldSum) {
  auto b = MeshBlock::structured(0, {5, 4, 7});
  auto& f = b.add_field("mass", Centering::kElement, 1);
  Rng rng(3);
  for (auto& v : f.data) v = rng.next_double();
  const double total = field_sum(b, "mass");

  int next_id = 1;
  auto [a, c] = split_structured(b, next_id);
  EXPECT_NEAR(field_sum(a, "mass") + field_sum(c, "mass"), total, 1e-12);
}

TEST(Refine, UnstructuredSplitConservesElements) {
  LabScaleSpec spec;
  spec.fluid_blocks = 1;
  spec.solid_blocks = 1;
  auto mesh = make_lab_scale_rocket(spec);
  MeshBlock& b = mesh.solid[0];
  auto& f = b.field("stress");
  Rng rng(5);
  for (auto& v : f.data) v = rng.next_double();
  const double total = field_sum(b, "stress");

  int next_id = 50;
  auto [x, y] = split_unstructured(b, next_id);
  EXPECT_GT(x.element_count(), 0u);
  EXPECT_GT(y.element_count(), 0u);
  EXPECT_EQ(x.element_count() + y.element_count(), b.element_count());
  EXPECT_NEAR(field_sum(x, "stress") + field_sum(y, "stress"), total, 1e-9);
  // Children are valid meshes (connectivity in range is enforced by the
  // constructor; also check the schema survived).
  EXPECT_NE(x.find_field("displacement"), nullptr);
  EXPECT_NE(y.find_field("stress"), nullptr);
}

TEST(Refine, SplitDispatchesOnKind) {
  auto s = MeshBlock::structured(0, {3, 3, 5});
  s.add_field("p", Centering::kElement, 1);
  int id = 0;
  auto [a, b] = split_block(s, id);
  EXPECT_EQ(a.kind(), MeshKind::kStructured);

  auto u = MeshBlock::unstructured(1, 5, {0, 1, 2, 3, 1, 2, 3, 4});
  u.coords()[0] = 0.0;
  u.coords()[3] = 10.0;  // spread along x
  auto [c, d] = split_block(u, id);
  EXPECT_EQ(c.kind(), MeshKind::kUnstructured);
}

TEST(Refine, TooSmallToSplitThrows) {
  auto b = MeshBlock::structured(0, {2, 2, 2});
  int id = 0;
  EXPECT_THROW((void)split_structured(b, id), InvalidArgument);
}

}  // namespace
}  // namespace roc::mesh
