/// \file roccom_test.cpp
/// \brief Tests for the Roccom framework: windows, panes, schema
/// validation, function registration/invocation, I/O module loading and
/// the block <-> SHDF dataset layout contract, the snapshot catalog and the
/// block wire format.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>

#include "comm/env.h"
#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "roccom/block_wire.h"
#include "roccom/blockio.h"
#include "roccom/io_service.h"
#include "roccom/roccom.h"
#include "rochdf/rochdf.h"
#include "shdf/reader.h"
#include "shdf/writer.h"
#include "test_fs.h"
#include "util/log_capture.h"
#include "vfs/vfs.h"

namespace roc::roccom {
namespace {

mesh::MeshBlock make_fluid_block(int id) {
  auto b = mesh::MeshBlock::structured(id, {4, 4, 4});
  mesh::add_fluid_schema(b);
  for (size_t i = 0; i < b.coords().size(); ++i)
    b.coords()[i] = 0.5 * static_cast<double>(i + id);
  auto& p = b.field("pressure");
  for (size_t i = 0; i < p.data.size(); ++i)
    p.data[i] = static_cast<double>(id * 1000 + static_cast<int>(i));
  return b;
}

TEST(Window, CreateDeleteAndLookup) {
  Roccom com;
  com.create_window("fluid");
  EXPECT_TRUE(com.has_window("fluid"));
  EXPECT_THROW(com.create_window("fluid"), RegistryError);
  EXPECT_THROW(com.create_window("bad.name"), RegistryError);
  EXPECT_THROW(com.create_window(""), RegistryError);
  EXPECT_THROW((void)com.window("nope"), RegistryError);
  com.delete_window("fluid");
  EXPECT_FALSE(com.has_window("fluid"));
  EXPECT_THROW(com.delete_window("fluid"), RegistryError);
}

TEST(Window, SchemaValidationOnPaneRegistration) {
  Roccom com;
  Window& w = com.create_window("fluid");
  w.declare_field({"velocity", mesh::Centering::kNode, 3});
  w.declare_field({"pressure", mesh::Centering::kElement, 1});
  EXPECT_THROW(w.declare_field({"velocity", mesh::Centering::kNode, 3}),
               RegistryError);

  auto good = make_fluid_block(0);
  w.register_pane(0, &good);

  // Schema frozen once panes exist.
  EXPECT_THROW(w.declare_field({"late", mesh::Centering::kNode, 1}),
               RegistryError);

  // Missing field.
  auto bare = mesh::MeshBlock::structured(1, {3, 3, 3});
  EXPECT_THROW(w.register_pane(1, &bare), RegistryError);

  // Wrong component count.
  auto wrong = mesh::MeshBlock::structured(2, {3, 3, 3});
  wrong.add_field("velocity", mesh::Centering::kNode, 2);
  wrong.add_field("pressure", mesh::Centering::kElement, 1);
  EXPECT_THROW(w.register_pane(2, &wrong), RegistryError);

  // Wrong centering.
  auto wrong2 = mesh::MeshBlock::structured(3, {3, 3, 3});
  wrong2.add_field("velocity", mesh::Centering::kElement, 3);
  wrong2.add_field("pressure", mesh::Centering::kElement, 1);
  EXPECT_THROW(w.register_pane(3, &wrong2), RegistryError);
}

TEST(Window, PanesVaryInSizeUnderOneSchema) {
  // The paper: all panes share the schema but sizes differ per pane.
  Roccom com;
  Window& w = com.create_window("fluid");
  w.declare_field({"pressure", mesh::Centering::kElement, 1});

  auto small = mesh::MeshBlock::structured(1, {3, 3, 3});
  small.add_field("pressure", mesh::Centering::kElement, 1);
  auto large = mesh::MeshBlock::structured(2, {9, 9, 9});
  large.add_field("pressure", mesh::Centering::kElement, 1);
  w.register_pane(1, &small);
  w.register_pane(2, &large);
  EXPECT_EQ(w.pane_count(), 2u);
  EXPECT_NE(w.pane(1).block->payload_bytes(),
            w.pane(2).block->payload_bytes());
}

TEST(Window, PaneLifecycle) {
  Roccom com;
  Window& w = com.create_window("win");
  auto b1 = make_fluid_block(1);
  auto b2 = make_fluid_block(2);
  w.register_pane(1, &b1);
  w.register_pane(2, &b2);
  EXPECT_THROW(w.register_pane(1, &b2), RegistryError);
  EXPECT_THROW(w.register_pane(3, nullptr), RegistryError);

  auto panes = w.panes();
  ASSERT_EQ(panes.size(), 2u);
  EXPECT_EQ(panes[0]->id, 1);  // pane-id order
  EXPECT_EQ(panes[1]->id, 2);

  w.remove_pane(1);
  EXPECT_FALSE(w.has_pane(1));
  EXPECT_THROW(w.remove_pane(1), RegistryError);
  w.clear_panes();
  EXPECT_EQ(w.pane_count(), 0u);
}

TEST(Functions, RegistrationAndQualifiedCall) {
  Roccom com;
  Window& w = com.create_window("solver");
  int calls = 0;
  double got = 0;
  w.register_function("step", [&](std::span<const Arg> args) {
    ++calls;
    if (!args.empty()) got = std::get<double>(args[0]);
  });
  com.call_function("solver.step");
  com.call_function("solver.step", {Arg(2.5)});
  EXPECT_EQ(calls, 2);
  EXPECT_DOUBLE_EQ(got, 2.5);

  EXPECT_THROW(com.call_function("solver.missing"), RegistryError);
  EXPECT_THROW(com.call_function("nope.step"), RegistryError);
  EXPECT_THROW(com.call_function("malformed"), RegistryError);
  EXPECT_THROW(com.call_function("solver."), RegistryError);
  EXPECT_THROW(w.register_function("step", [](std::span<const Arg>) {}),
               RegistryError);
  EXPECT_THROW(w.register_function("empty", Function{}), RegistryError);
}

TEST(Functions, HeterogeneousArgPack) {
  Roccom com;
  Window& w = com.create_window("w");
  w.register_function("f", [](std::span<const Arg> args) {
    EXPECT_EQ(std::get<int64_t>(args[0]), 42);
    EXPECT_DOUBLE_EQ(std::get<double>(args[1]), 1.5);
    EXPECT_EQ(std::get<std::string>(args[2]), "str");
  });
  com.call_function("w.f", {Arg(int64_t{42}), Arg(1.5), Arg(std::string("str"))});
}

TEST(IoModule, LoadRegistersVerbsAndUnloadRemovesWindow) {
  // Any service works; Rochdf is the simplest.
  vfs::MemFileSystem fs;
  comm::RealEnv env;
  comm::World::run(1, [&](comm::Comm& comm) {
    Roccom com;
    Window& w = com.create_window("fluid");
    w.declare_field({"pressure", mesh::Centering::kElement, 1});
    auto b = make_fluid_block(0);
    com.window("fluid").register_pane(0, &b);

    {
      IoModuleHandle handle(
          com, "RIO",
          std::make_unique<rochdf::Rochdf>(comm, env, fs, rochdf::Options{}));
      EXPECT_TRUE(com.has_window("RIO"));
      EXPECT_TRUE(com.window("RIO").has_function("write_attribute"));
      EXPECT_TRUE(com.window("RIO").has_function("read_attribute"));
      EXPECT_TRUE(com.window("RIO").has_function("sync"));

      IoRequest req{"fluid", "all", "snap_000", 0.5};
      com_write_attribute(com, "RIO", req);
      com_sync(com, "RIO");
      EXPECT_TRUE(fs.exists("snap_000_p0000.shdf"));

      // Mutate and restore through the verbs.
      const auto original = b.field("pressure").data;
      b.field("pressure").data.assign(b.field("pressure").data.size(), -1.0);
      com_read_attribute(com, "RIO", req);
      EXPECT_EQ(b.field("pressure").data, original);
    }
    EXPECT_FALSE(com.has_window("RIO"));  // handle unloads on destruction
  });
}

TEST(IoModule, SwitchingModulesKeepsApplicationCodeUnchanged) {
  // The application only knows the window name "RIO"; loading a different
  // module swaps the I/O strategy (paper §5).
  vfs::MemFileSystem fs;
  comm::RealEnv env;
  comm::World::run(1, [&](comm::Comm& comm) {
    Roccom com;
    Window& w = com.create_window("fluid");
    w.declare_field({"pressure", mesh::Centering::kElement, 1});
    auto b = make_fluid_block(0);
    w.register_pane(0, &b);

    auto app_writes_snapshot = [&](const std::string& file) {
      IoRequest req{"fluid", "all", file, 0.0};
      com_write_attribute(com, "RIO", req);
      com_sync(com, "RIO");
    };

    {
      rochdf::Options plain;
      IoModuleHandle h(com, "RIO", std::make_unique<rochdf::Rochdf>(
                                        comm, env, fs, plain));
      app_writes_snapshot("snap_a");
    }
    {
      rochdf::Options threaded;
      threaded.threaded = true;
      IoModuleHandle h(com, "RIO", std::make_unique<rochdf::Rochdf>(
                                        comm, env, fs, threaded));
      app_writes_snapshot("snap_b");
    }
    EXPECT_TRUE(fs.exists("snap_a_p0000.shdf"));
    EXPECT_TRUE(fs.exists("snap_b_p0000.shdf"));
  });
}

// --- blockio layout contract -------------------------------------------------

TEST(BlockIo, DatasetNamingConvention) {
  EXPECT_EQ(block_prefix("fluid", 7), "fluid/block_000007/");
  EXPECT_EQ(block_prefix("solid", 123456), "solid/block_123456/");
}

TEST(BlockIo, StructuredBlockRoundTrip) {
  vfs::MemFileSystem fs;
  auto b = make_fluid_block(3);
  {
    shdf::Writer w(fs, "f.shdf");
    write_block(w, "fluid", b, "all", 1.25);
  }
  shdf::Reader r(fs, "f.shdf");
  EXPECT_EQ(pane_ids_in_file(r, "fluid"), std::vector<int>{3});
  EXPECT_DOUBLE_EQ(block_time(r, "fluid", 3), 1.25);

  const auto c = read_block(r, "fluid", 3);
  EXPECT_EQ(c.state_checksum(), b.state_checksum());
}

TEST(BlockIo, UnstructuredBlockRoundTrip) {
  vfs::MemFileSystem fs;
  mesh::LabScaleSpec spec;
  spec.fluid_blocks = 1;
  spec.solid_blocks = 1;
  auto mesh_obj = mesh::make_lab_scale_rocket(spec);
  const auto& b = mesh_obj.solid[0];
  {
    shdf::Writer w(fs, "s.shdf");
    write_block(w, "solid", b, "all", 0.0);
  }
  shdf::Reader r(fs, "s.shdf");
  const auto c = read_block(r, "solid", b.id());
  EXPECT_EQ(c.kind(), mesh::MeshKind::kUnstructured);
  EXPECT_EQ(c.connectivity(), b.connectivity());
  EXPECT_EQ(c.state_checksum(), b.state_checksum());
}

TEST(BlockIo, MeshOnlyAndSingleFieldSelectors) {
  vfs::MemFileSystem fs;
  auto b = make_fluid_block(1);
  {
    shdf::Writer w(fs, "sel.shdf");
    write_block(w, "fluid", b, "mesh", 0.0);
  }
  {
    shdf::Reader r(fs, "sel.shdf");
    EXPECT_TRUE(r.has_dataset("fluid/block_000001/coords"));
    EXPECT_FALSE(r.has_dataset("fluid/block_000001/field:pressure"));
  }
  {
    shdf::Writer w = shdf::Writer::append(fs, "sel.shdf");
    write_block(w, "fluid", b, "pressure", 0.0);
  }
  shdf::Reader r(fs, "sel.shdf");
  EXPECT_TRUE(r.has_dataset("fluid/block_000001/field:pressure"));
  EXPECT_FALSE(r.has_dataset("fluid/block_000001/field:velocity"));

  // read_into_block with a single-field selector only touches that field.
  auto c = make_fluid_block(1);
  c.field("pressure").data.assign(c.field("pressure").data.size(), 0.0);
  c.field("temperature").data.assign(c.field("temperature").data.size(), 7.0);
  read_into_block(r, "fluid", "pressure", c);
  EXPECT_EQ(c.field("pressure").data, b.field("pressure").data);
  EXPECT_EQ(c.field("temperature").data[0], 7.0);
}

TEST(BlockIo, MultipleBlocksAndWindowsInOneFile) {
  vfs::MemFileSystem fs;
  auto b1 = make_fluid_block(1);
  auto b2 = make_fluid_block(2);
  auto b9 = make_fluid_block(9);
  {
    shdf::Writer w(fs, "multi.shdf");
    write_block(w, "fluid", b2, "all", 0.0);
    write_block(w, "fluid", b1, "all", 0.0);
    write_block(w, "other", b9, "all", 0.0);
  }
  shdf::Reader r(fs, "multi.shdf");
  EXPECT_EQ(pane_ids_in_file(r, "fluid"), (std::vector<int>{1, 2}));
  EXPECT_EQ(pane_ids_in_file(r, "other"), (std::vector<int>{9}));
  EXPECT_EQ(pane_ids_in_file(r, "ghost"), std::vector<int>{});
}

TEST(BlockIo, ReadIntoBlockValidatesSizes) {
  vfs::MemFileSystem fs;
  auto b = make_fluid_block(1);
  {
    shdf::Writer w(fs, "v.shdf");
    write_block(w, "fluid", b, "all", 0.0);
  }
  shdf::Reader r(fs, "v.shdf");
  auto wrong = mesh::MeshBlock::structured(1, {5, 5, 5});
  mesh::add_fluid_schema(wrong);
  EXPECT_THROW(read_into_block(r, "fluid", "all", wrong), FormatError);
}

// --- snapshot catalog ----------------------------------------------------------

TEST(BlockIo, SnapshotFilesMatchTheBasenameExactly) {
  vfs::MemFileSystem fs;
  for (const char* path :
       {"out/state_p0000.shdf", "out/state_s0001.shdf", "out/state_p12.shdf",
        "out/state_post_p0000.shdf", "out/state_p0000.shdf.tmp",
        "out/state_p.shdf", "out/state_x0000.shdf", "out/state_p00a0.shdf",
        "state_p0000.shdf"})
    (void)fs.open(path, vfs::OpenMode::kTruncate);
  EXPECT_EQ(snapshot_files(fs, "out/", "state"),
            (std::vector<std::string>{"out/state_p0000.shdf",
                                      "out/state_p12.shdf",
                                      "out/state_s0001.shdf"}));
  EXPECT_EQ(snapshot_files(fs, "out/", "state_post"),
            std::vector<std::string>{"out/state_post_p0000.shdf"});
  EXPECT_TRUE(snapshot_files(fs, "", "none").empty());
}

TEST(BlockIo, BlocksInFileListsEveryWindowInOrder) {
  vfs::MemFileSystem fs;
  {
    shdf::Writer w(fs, "multi.shdf");
    write_block(w, "solid", make_fluid_block(4), "all", 0.0);
    write_block(w, "fluid", make_fluid_block(2), "all", 0.0);
    write_block(w, "fluid", make_fluid_block(1), "mesh", 0.0);
    write_block(w, "fluid", make_fluid_block(-3), "pressure", 0.0);
  }
  shdf::Reader r(fs, "multi.shdf");
  const auto blocks = blocks_in_file(r);
  ASSERT_EQ(blocks.size(), 3u);  // the field-only write holds no block
  EXPECT_EQ(blocks[0].window, "fluid");
  EXPECT_EQ(blocks[0].pane_id, 1);
  EXPECT_EQ(blocks[1].window, "fluid");
  EXPECT_EQ(blocks[1].pane_id, 2);
  EXPECT_EQ(blocks[2].window, "solid");
  EXPECT_EQ(blocks[2].pane_id, 4);
}

TEST(BlockIo, PassThroughAppendLeavesOldOrNewStateAfterEveryFault) {
  // A committed window, then an append of four ~0.9 MB blocks through
  // WireBlockView::write_to, whose owned payload slices the writer queues
  // and writes in several gathers.  A crash at any op, or a failure of any
  // one op, must leave the file opening to exactly the old datasets or
  // exactly the new set, every payload's CRC intact.
  const auto wire_of = [](int id, int n) {
    auto b = mesh::MeshBlock::structured(id, {n, n, n});
    mesh::add_fluid_schema(b);
    std::iota(b.coords().begin(), b.coords().end(), 0.25 * id);
    for (const char* f : {"velocity", "pressure", "temperature"}) {
      auto& data = b.field(f).data;
      std::iota(data.begin(), data.end(), 1000.0 * id);
    }
    return SharedBuffer::adopt(WireBlock::from_block(b, "all").serialize());
  };
  const SharedBuffer first = wire_of(0, 4);
  std::vector<SharedBuffer> second;
  for (int id = 1; id <= 4; ++id) second.push_back(wire_of(id, 24));

  const auto commit_first = [&](vfs::FileSystem& fs) {
    shdf::Writer w(fs, "p.shdf");
    WireBlockView::parse(first).write_to(w, "fluid", 0.0);
    w.close();
  };
  const auto append_second = [&](vfs::FileSystem& fs) {
    shdf::Writer w = shdf::Writer::append(fs, "p.shdf");
    for (const SharedBuffer& wire : second)
      WireBlockView::parse(wire).write_to(w, "burn", 0.5);
    w.close();
  };
  // Every dataset's bytes, each read verifying its CRC.
  const auto contents = [](vfs::FileSystem& fs) {
    shdf::Reader r(fs, "p.shdf");
    std::map<std::string, std::vector<unsigned char>> out;
    for (const auto& name : r.dataset_names()) out[name] = r.read_raw(name);
    return out;
  };

  vfs::MemFileSystem ref;
  commit_first(ref);
  const auto old_state = contents(ref);
  uint64_t append_ops, append_writes;
  {
    testfs::CrashingFileSystem fs(ref);
    append_second(fs);
    append_ops = fs.ops;
    append_writes = fs.writes;
  }
  const auto new_state = contents(ref);
  ASSERT_EQ(new_state.size(), old_state.size() + 4 * 4);
  // Several gathers for sixteen datasets, then the directory and the
  // superblock.
  EXPECT_GE(append_writes, 3u + 2u);
  EXPECT_LT(append_writes, 16u);

  ScopedLogCapture quiet;  // a writer dropped after a failed write logs it
  for (const bool once : {false, true}) {
    for (uint64_t n = 0; n <= append_ops; ++n) {
      SCOPED_TRACE((once ? "fail once at op " : "crash at op ") +
                   std::to_string(n));
      vfs::MemFileSystem mem;
      commit_first(mem);
      testfs::CrashingFileSystem fs(mem);
      (once ? fs.fail_once_at : fs.crash_at) = n;
      try {
        append_second(fs);
      } catch (const IoError&) {
      }
      try {
        const auto got = contents(mem);
        if (n == append_ops)
          EXPECT_TRUE(got == new_state);
        else
          EXPECT_TRUE(got == old_state || got == new_state);
      } catch (const Error& e) {
        ADD_FAILURE() << e.what();
      }
    }
  }
}

// --- block wire format ---------------------------------------------------------

/// Encodes `b` the way a receiver holds it: the chain, flattened.
std::vector<unsigned char> encode(const mesh::MeshBlock& b) {
  return WireBlock::serialize_chain(b, "all").to_vector();
}

TEST(MeshBlock, SerializeRoundTripStructured) {
  auto b = mesh::MeshBlock::structured(7, {3, 4, 2});
  for (size_t i = 0; i < b.coords().size(); ++i)
    b.coords()[i] = 0.25 * static_cast<double>(i);
  auto& f = b.add_field("temp", mesh::Centering::kElement, 1);
  std::iota(f.data.begin(), f.data.end(), 100.0);

  const auto bytes = encode(b);
  const auto c = decode_block(bytes.data(), bytes.size());
  EXPECT_EQ(c.id(), 7);
  EXPECT_EQ(c.node_dims(), b.node_dims());
  EXPECT_EQ(c.coords(), b.coords());
  EXPECT_EQ(c.field("temp").data, f.data);
  EXPECT_EQ(c.state_checksum(), b.state_checksum());
}

TEST(MeshBlock, SerializeRoundTripUnstructured) {
  auto b = mesh::MeshBlock::unstructured(9, 5, {0, 1, 2, 3, 1, 2, 3, 4});
  b.coords()[0] = 1.5;
  auto& f = b.add_field("stress", mesh::Centering::kElement, 6);
  f.data[3] = -2.0;

  const auto bytes = encode(b);
  const auto c = decode_block(bytes.data(), bytes.size());
  EXPECT_EQ(c.kind(), mesh::MeshKind::kUnstructured);
  EXPECT_EQ(c.connectivity(), b.connectivity());
  EXPECT_EQ(c.state_checksum(), b.state_checksum());
}

TEST(BlockWire, DecoderRejectsArraysThatDoNotFitTheBlock) {
  struct Case {
    const char* what;
    std::vector<unsigned char> bytes;
  };
  std::vector<Case> cases;
  {
    auto b = mesh::MeshBlock::structured(1, {3, 3, 3});  // 27 nodes
    b.coords().resize(3);
    cases.push_back({"short coords", encode(b)});
  }
  {
    auto b = mesh::MeshBlock::structured(1, {3, 3, 3});
    b.add_field("p", mesh::Centering::kNode, 1).data.resize(2);
    cases.push_back({"2-value node field on 27 nodes", encode(b)});
  }
  {
    // A 4-node tet whose connectivity (the last 16 bytes) is patched to
    // reference node 1000000.
    auto bytes = encode(mesh::MeshBlock::unstructured(1, 4, {0, 1, 2, 3}));
    const int32_t far = 1000000;
    std::memcpy(bytes.data() + bytes.size() - 16, &far, sizeof(far));
    cases.push_back({"connectivity out of range", std::move(bytes)});
  }
  for (const Case& c : cases) {
    EXPECT_THROW((void)decode_block(c.bytes.data(), c.bytes.size()),
                 FormatError)
        << c.what;
    EXPECT_THROW((void)WireBlock::deserialize(c.bytes), FormatError)
        << c.what;
  }
}

TEST(BlockWire, StoredBlockEncoderRejectsWhatReadBlockRejects) {
  vfs::MemFileSystem fs;
  {
    shdf::Writer w(fs, "f.shdf");
    write_block(w, "fluid", make_fluid_block(1), "all", 0.0);
    // A structured coords dataset without its node_dims attribute.
    w.add("fluid/block_000002/coords", std::vector<double>(24, 0.0),
          {{"kind", int64_t{0}}, {"pane_id", int64_t{2}}, {"time", 0.0}},
          {8, 3});
  }
  // One payload byte of block 1's pressure field, flipped.
  {
    const uint64_t at = shdf::Reader(fs, "f.shdf")
                            .info("fluid/block_000001/field:pressure")
                            .data_offset;
    auto f = fs.open("f.shdf", vfs::OpenMode::kReadWrite);
    f->seek(at);
    f->write("x", 1);
  }
  const shdf::Reader r(fs, "f.shdf");
  BufferPool pool;
  ReadScratch scratch;
  for (const int id : {1, 2, 3}) {
    EXPECT_THROW((void)read_block(r, "fluid", id), Error) << id;
    EXPECT_THROW(
        (void)read_wire_block(r, "fluid", id, {}, pool, scratch), FormatError)
        << id;
  }
}

}  // namespace
}  // namespace roc::roccom
