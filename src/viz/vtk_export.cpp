#include "viz/vtk_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "mesh/mesh_block.h"
#include "roccom/blockio.h"
#include "shdf/reader.h"

namespace roc::viz {

using mesh::Centering;
using mesh::MeshBlock;
using mesh::MeshKind;

namespace {

/// Buffered text writer over a vfs::File (legacy VTK is line-oriented).
class TextOut {
 public:
  explicit TextOut(vfs::File& f) : f_(f) {}
  ~TextOut() { flush(); }

  void printf(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char line[256];
    va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(line, sizeof(line), fmt, args);
    va_end(args);
    buf_.append(line, static_cast<size_t>(n));
    if (buf_.size() > 1 << 16) flush();
  }

  void flush() {
    if (buf_.empty()) return;
    f_.write(buf_.data(), buf_.size());
    buf_.clear();
  }

 private:
  vfs::File& f_;
  std::string buf_;
};

/// Emits the hexahedron connectivity of a structured block, with node ids
/// offset by `base`.
void emit_structured_cells(TextOut& out, const MeshBlock& b, size_t base) {
  const auto& d = b.node_dims();
  auto node = [&](int i, int j, int k) {
    return base + (static_cast<size_t>(k) * d[1] + j) * d[0] + i;
  };
  for (int k = 0; k + 1 < d[2]; ++k)
    for (int j = 0; j + 1 < d[1]; ++j)
      for (int i = 0; i + 1 < d[0]; ++i)
        out.printf("8 %zu %zu %zu %zu %zu %zu %zu %zu\n", node(i, j, k),
                   node(i + 1, j, k), node(i + 1, j + 1, k),
                   node(i, j + 1, k), node(i, j, k + 1),
                   node(i + 1, j, k + 1), node(i + 1, j + 1, k + 1),
                   node(i, j + 1, k + 1));
}

}  // namespace

ExportStats export_window_vtk(vfs::FileSystem& fs,
                              const std::vector<std::string>& snapshot_files,
                              const std::string& window,
                              const std::string& out_path) {
  // Load every block of the window, ordered by pane id for a canonical
  // output regardless of which file holds which block.
  std::vector<MeshBlock> blocks;
  for (const auto& path : snapshot_files) {
    shdf::Reader r(fs, path);
    for (int id : roccom::pane_ids_in_file(r, window))
      blocks.push_back(roccom::read_block(r, window, id));
  }
  require(!blocks.empty(),
          "no blocks of window '" + window + "' in the snapshot");
  std::sort(blocks.begin(), blocks.end(),
            [](const MeshBlock& a, const MeshBlock& b) {
              return a.id() < b.id();
            });

  ExportStats stats;
  stats.blocks = blocks.size();
  size_t cell_entries = 0;  // total ints in the CELLS section
  for (const auto& b : blocks) {
    stats.points += b.node_count();
    stats.cells += b.element_count();
    cell_entries += b.element_count() *
                    (b.kind() == MeshKind::kStructured ? 9 : 5);
  }

  auto file = fs.open(out_path, vfs::OpenMode::kTruncate);
  TextOut out(*file);
  out.printf("# vtk DataFile Version 3.0\n");
  out.printf("rocpio snapshot window %s (%zu blocks)\n", window.c_str(),
             blocks.size());
  out.printf("ASCII\nDATASET UNSTRUCTURED_GRID\n");

  // Points.
  out.printf("POINTS %zu double\n", stats.points);
  for (const auto& b : blocks)
    for (size_t n = 0; n < b.node_count(); ++n)
      out.printf("%.9g %.9g %.9g\n", b.coords()[3 * n],
                 b.coords()[3 * n + 1], b.coords()[3 * n + 2]);

  // Cells.
  out.printf("CELLS %zu %zu\n", stats.cells, cell_entries);
  size_t base = 0;
  for (const auto& b : blocks) {
    if (b.kind() == MeshKind::kStructured) {
      emit_structured_cells(out, b, base);
    } else {
      const auto& c = b.connectivity();
      for (size_t e = 0; e < b.element_count(); ++e)
        out.printf("4 %zu %zu %zu %zu\n", base + c[4 * e],
                   base + c[4 * e + 1], base + c[4 * e + 2],
                   base + c[4 * e + 3]);
    }
    base += b.node_count();
  }
  out.printf("CELL_TYPES %zu\n", stats.cells);
  for (const auto& b : blocks) {
    const int type = b.kind() == MeshKind::kStructured ? 12 : 10;  // hex/tet
    for (size_t e = 0; e < b.element_count(); ++e) out.printf("%d\n", type);
  }

  // Fields: the window schema is uniform, so take it from the first block.
  std::vector<std::pair<std::string, int>> point_fields, cell_fields;
  for (const auto& f : blocks.front().fields()) {
    if (f.centering == Centering::kNode)
      point_fields.emplace_back(f.name, f.ncomp);
    else
      cell_fields.emplace_back(f.name, f.ncomp);
  }

  auto emit_field = [&](const std::string& name, int ncomp,
                        Centering centering) {
    if (ncomp == 3) {
      out.printf("VECTORS %s double\n", name.c_str());
    } else {
      out.printf("SCALARS %s double %d\nLOOKUP_TABLE default\n",
                 name.c_str(), ncomp);
    }
    for (const auto& b : blocks) {
      const auto& data = b.field(name).data;
      const size_t entities = b.entity_count(centering);
      for (size_t e = 0; e < entities; ++e) {
        for (int c = 0; c < ncomp; ++c)
          out.printf(c + 1 == ncomp ? "%.9g" : "%.9g ",
                     data[e * static_cast<size_t>(ncomp) +
                          static_cast<size_t>(c)]);
        out.printf("\n");
      }
    }
  };

  if (!point_fields.empty()) {
    out.printf("POINT_DATA %zu\n", stats.points);
    for (const auto& [name, ncomp] : point_fields)
      emit_field(name, ncomp, Centering::kNode);
    stats.point_fields = point_fields.size();
  }
  if (!cell_fields.empty()) {
    out.printf("CELL_DATA %zu\n", stats.cells);
    for (const auto& [name, ncomp] : cell_fields)
      emit_field(name, ncomp, Centering::kElement);
    stats.cell_fields = cell_fields.size();
  }
  out.flush();
  return stats;
}

ExportStats export_snapshot_vtk(vfs::FileSystem& fs,
                                const std::string& snapshot_base,
                                const std::string& window,
                                const std::string& out_path) {
  const auto files = roccom::snapshot_files(fs, "", snapshot_base);
  require(!files.empty(), "no files for snapshot ", snapshot_base);
  return export_window_vtk(fs, files, window, out_path);
}

}  // namespace roc::viz
