/// \file viz_test.cpp
/// \brief Tests for the VTK export (Rocketeer-lite): merged geometry
/// counts, field sections, multi-file snapshots, and parse-back checks.

#include <gtest/gtest.h>

#include <sstream>

#include "comm/thread_comm.h"
#include "genx/orchestrator.h"
#include "mesh/generators.h"
#include "roccom/blockio.h"
#include "rochdf/rochdf.h"
#include "shdf/writer.h"
#include "viz/vtk_export.h"

namespace roc::viz {
namespace {

std::string read_all(vfs::FileSystem& fs, const std::string& path) {
  auto f = fs.open(path, vfs::OpenMode::kRead);
  std::string s(static_cast<size_t>(f->size()), '\0');
  f->read(s.data(), s.size());
  return s;
}

/// Minimal legacy-VTK structural parser: section keyword -> declared count.
std::map<std::string, size_t> parse_sections(const std::string& text) {
  std::map<std::string, size_t> out;
  std::istringstream in(text);
  std::string word;
  while (in >> word) {
    if (word == "POINTS" || word == "CELLS" || word == "CELL_TYPES" ||
        word == "POINT_DATA" || word == "CELL_DATA") {
      size_t n;
      in >> n;
      out[word] = n;
    }
  }
  return out;
}

TEST(VtkExport, SingleStructuredBlock) {
  vfs::MemFileSystem fs;
  auto b = mesh::MeshBlock::structured(0, {3, 3, 3});
  mesh::add_fluid_schema(b);
  {
    shdf::Writer w(fs, "one.shdf");
    roccom::write_block(w, "fluid", b, "all", 0.0);
  }
  const auto stats = export_window_vtk(fs, {"one.shdf"}, "fluid", "out.vtk");
  EXPECT_EQ(stats.blocks, 1u);
  EXPECT_EQ(stats.points, 27u);
  EXPECT_EQ(stats.cells, 8u);
  EXPECT_EQ(stats.point_fields, 1u);  // velocity
  EXPECT_EQ(stats.cell_fields, 2u);   // pressure, temperature

  const std::string text = read_all(fs, "out.vtk");
  EXPECT_EQ(text.rfind("# vtk DataFile Version 3.0", 0), 0u);
  const auto sections = parse_sections(text);
  EXPECT_EQ(sections.at("POINTS"), 27u);
  EXPECT_EQ(sections.at("CELLS"), 8u);
  EXPECT_EQ(sections.at("CELL_TYPES"), 8u);
  EXPECT_EQ(sections.at("POINT_DATA"), 27u);
  EXPECT_EQ(sections.at("CELL_DATA"), 8u);
  EXPECT_NE(text.find("VECTORS velocity double"), std::string::npos);
  EXPECT_NE(text.find("SCALARS pressure double 1"), std::string::npos);
}

TEST(VtkExport, CellLineCountsMatchDeclaredCounts) {
  vfs::MemFileSystem fs;
  auto b = mesh::MeshBlock::unstructured(1, 5, {0, 1, 2, 3, 1, 2, 3, 4});
  b.add_field("stress", mesh::Centering::kElement, 6);
  b.add_field("displacement", mesh::Centering::kNode, 3);
  b.add_field("surface_load", mesh::Centering::kNode, 1);
  {
    shdf::Writer w(fs, "tet.shdf");
    roccom::write_block(w, "solid", b, "all", 0.0);
  }
  const auto stats = export_window_vtk(fs, {"tet.shdf"}, "solid", "t.vtk");
  EXPECT_EQ(stats.cells, 2u);

  // Each tet line starts with "4 "; count them.
  const std::string text = read_all(fs, "t.vtk");
  size_t tet_lines = 0;
  std::istringstream in(text);
  std::string line;
  bool in_cells = false;
  while (std::getline(in, line)) {
    if (line.rfind("CELLS", 0) == 0) {
      in_cells = true;
      continue;
    }
    if (line.rfind("CELL_TYPES", 0) == 0) in_cells = false;
    if (in_cells && line.rfind("4 ", 0) == 0) ++tet_lines;
  }
  EXPECT_EQ(tet_lines, 2u);
}

TEST(VtkExport, MergesBlocksAcrossFilesWithOffsets) {
  vfs::MemFileSystem fs;
  auto b0 = mesh::MeshBlock::structured(0, {2, 2, 2});
  auto b1 = mesh::MeshBlock::structured(1, {2, 2, 2});
  mesh::add_fluid_schema(b0);
  mesh::add_fluid_schema(b1);
  {
    shdf::Writer w(fs, "part_p0000.shdf");
    roccom::write_block(w, "fluid", b0, "all", 0.0);
  }
  {
    shdf::Writer w(fs, "part_p0001.shdf");
    roccom::write_block(w, "fluid", b1, "all", 0.0);
  }
  const auto stats = export_snapshot_vtk(fs, "part", "fluid", "m.vtk");
  EXPECT_EQ(stats.blocks, 2u);
  EXPECT_EQ(stats.points, 16u);
  EXPECT_EQ(stats.cells, 2u);

  // The second block's cell must reference nodes >= 8 (offsetting works).
  const std::string text = read_all(fs, "m.vtk");
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> cell_lines;
  bool in_cells = false;
  while (std::getline(in, line)) {
    if (line.rfind("CELLS", 0) == 0) {
      in_cells = true;
      continue;
    }
    if (line.rfind("CELL_TYPES", 0) == 0) in_cells = false;
    else if (in_cells) cell_lines.push_back(line);
  }
  ASSERT_EQ(cell_lines.size(), 2u);
  EXPECT_NE(cell_lines[1].find("15"), std::string::npos);
}

TEST(VtkExport, SnapshotExcludesFilesOfALongerBasename) {
  // "state_post" starts with "state_": its files must not join snapshot
  // "state", whether they hold the same pane ids or other ones.
  for (const int post_offset : {0, 10}) {
    vfs::MemFileSystem fs;
    auto write = [&](const std::string& path, int first_id, int n) {
      shdf::Writer w(fs, path);
      for (int id = first_id; id < first_id + 2; ++id) {
        auto b = mesh::MeshBlock::structured(id, {n, n, n});
        mesh::add_fluid_schema(b);
        roccom::write_block(w, "fluid", b, "all", 0.0);
      }
    };
    write("state_p0000.shdf", 0, 3);
    write("state_post_s0000.shdf", post_offset, 4);
    const auto stats = export_snapshot_vtk(fs, "state", "fluid", "out.vtk");
    EXPECT_EQ(stats.blocks, 2u);
    EXPECT_EQ(stats.points, 2u * 27u);
  }
}

TEST(VtkExport, MissingWindowThrows) {
  vfs::MemFileSystem fs;
  auto b = mesh::MeshBlock::structured(0, {2, 2, 2});
  {
    shdf::Writer w(fs, "x.shdf");
    roccom::write_block(w, "fluid", b, "mesh", 0.0);
  }
  EXPECT_THROW(
      (void)export_window_vtk(fs, {"x.shdf"}, "solid", "o.vtk"),
      InvalidArgument);
  EXPECT_THROW((void)export_snapshot_vtk(fs, "nope", "fluid", "o.vtk"),
               InvalidArgument);
}

TEST(VtkExport, FullGenxSnapshotAllWindows) {
  // End-to-end: run mini-GENx, export every window of the final snapshot.
  vfs::MemFileSystem fs;
  comm::World::run(2, [&](comm::Comm& comm) {
    comm::RealEnv env;
    rochdf::Rochdf io(comm, env, fs, rochdf::Options{});
    genx::GenxConfig cfg;
    cfg.mesh_spec.fluid_blocks = 4;
    cfg.mesh_spec.solid_blocks = 3;
    cfg.mesh_spec.base_block_nodes = 5;
    cfg.steps = 10;
    cfg.snapshot_interval = 10;
    cfg.run_name = "viz";
    genx::GenxRun run(comm, env, io, cfg);
    run.init_fresh();
    run.run();
  });

  for (const char* window : {"fluid", "solid", "burn"}) {
    const auto stats = export_snapshot_vtk(fs, "viz_snap_000010", window,
                                           std::string(window) + ".vtk");
    EXPECT_GT(stats.points, 0u) << window;
    EXPECT_GT(stats.cells, 0u) << window;
    const auto sections =
        parse_sections(read_all(fs, std::string(window) + ".vtk"));
    EXPECT_EQ(sections.at("POINTS"), stats.points) << window;
    EXPECT_EQ(sections.at("CELLS"), stats.cells) << window;
  }
}

}  // namespace
}  // namespace roc::viz
