/// \file rochdf_test.cpp
/// \brief Tests for Rochdf (individual I/O) and T-Rochdf (background I/O
/// thread): per-process files, buffer-reuse safety, snapshot back-pressure,
/// sync semantics, restart via fetch_blocks/list_panes.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "rochdf/rochdf.h"
#include "shdf/reader.h"
#include "util/log_capture.h"
#include "util/mutex.h"
#include "util/thread.h"
#include "vfs/vfs.h"

#include "test_fs.h"

namespace roc::rochdf {
namespace {

using roccom::IoRequest;
using roccom::Roccom;


/// Piecewise name concatenation: `"lit" + std::to_string(...)` trips
/// GCC 12's bogus -Wrestrict at -O3 (PR105651).
std::string snap_name(const char* prefix, int snap, const char* suffix = "") {
  std::string n = prefix;
  n += std::to_string(snap);
  n += suffix;
  return n;
}

mesh::MeshBlock make_block(int id, int n = 4) {
  auto b = mesh::MeshBlock::structured(id, {n, n, n});
  mesh::add_fluid_schema(b);
  auto& p = b.field("pressure");
  std::iota(p.data.begin(), p.data.end(), static_cast<double>(id * 10000));
  for (size_t i = 0; i < b.coords().size(); ++i)
    b.coords()[i] = static_cast<double>(id) + 0.001 * static_cast<double>(i);
  return b;
}

/// Fixture parameterized over {non-threaded, threaded}.
class RochdfTest : public ::testing::TestWithParam<bool> {
 protected:
  Options opts() const {
    Options o;
    o.threaded = GetParam();
    return o;
  }
};

TEST_P(RochdfTest, FileNaming) {
  EXPECT_EQ(Rochdf::proc_file("", "snap_1", 3), "snap_1_p0003.shdf");
  EXPECT_EQ(Rochdf::proc_file("out/", "snap_1", 12), "out/snap_1_p0012.shdf");
}

TEST_P(RochdfTest, OneFilePerProcessPerSnapshot) {
  vfs::MemFileSystem fs;
  comm::World::run(4, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(comm.rank());
    w.register_pane(comm.rank(), &b);

    Rochdf io(comm, env, fs, opts());
    io.write_attribute(com, IoRequest{"fluid", "all", "snap_000", 0.0});
    io.sync();
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(fs.list("snap_000_p").size(), 4u);
    }
  });
}

TEST_P(RochdfTest, WriteReadRoundTrip) {
  vfs::MemFileSystem fs;
  comm::World::run(2, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b1 = make_block(comm.rank() * 2);
    auto b2 = make_block(comm.rank() * 2 + 1, 5);
    w.register_pane(b1.id(), &b1);
    w.register_pane(b2.id(), &b2);
    const auto crc1 = b1.state_checksum();
    const auto crc2 = b2.state_checksum();

    Rochdf io(comm, env, fs, opts());
    io.write_attribute(com, IoRequest{"fluid", "all", "rt", 1.0});
    io.sync();

    // Clobber, then restore.
    b1.field("pressure").data.assign(b1.field("pressure").data.size(), -9.0);
    b2.coords().assign(b2.coords().size(), -9.0);
    io.read_attribute(com, IoRequest{"fluid", "all", "rt", 1.0});
    EXPECT_EQ(b1.state_checksum(), crc1);
    EXPECT_EQ(b2.state_checksum(), crc2);
  });
}

TEST_P(RochdfTest, BufferReuseSafety) {
  // The paper's transparency contract: mutate the block immediately after
  // write_attribute returns; the file must hold the pre-mutation values.
  vfs::MemFileSystem fs;
  comm::World::run(1, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(0);
    w.register_pane(0, &b);
    const auto saved = b.field("pressure").data;

    Rochdf io(comm, env, fs, opts());
    io.write_attribute(com, IoRequest{"fluid", "all", "reuse", 0.0});
    // Mutate instantly -- the service must have copied or written already.
    b.field("pressure").data.assign(b.field("pressure").data.size(), 1e9);
    io.sync();

    shdf::Reader r(fs, "reuse_p0000.shdf");
    EXPECT_EQ(r.read<double>("fluid/block_000000/field:pressure"), saved);
  });
}

TEST_P(RochdfTest, MultipleModulesAppendToOneSnapshotFile) {
  // Back-to-back write requests from different windows within one snapshot
  // end up in the same per-process file (the paper's multi-component
  // output phase).
  vfs::MemFileSystem fs;
  comm::World::run(1, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& wf = com.create_window("fluid");
    auto& ws = com.create_window("solid");
    auto bf = make_block(0);
    auto bs = make_block(1);
    wf.register_pane(0, &bf);
    ws.register_pane(1, &bs);

    Rochdf io(comm, env, fs, opts());
    io.write_attribute(com, IoRequest{"fluid", "all", "multi", 0.0});
    io.write_attribute(com, IoRequest{"solid", "all", "multi", 0.0});
    io.sync();

    shdf::Reader r(fs, "multi_p0000.shdf");
    EXPECT_EQ(roccom::pane_ids_in_file(r, "fluid"), std::vector<int>{0});
    EXPECT_EQ(roccom::pane_ids_in_file(r, "solid"), std::vector<int>{1});
    EXPECT_EQ(fs.file_count(), 1u);
  });
}

TEST_P(RochdfTest, SelectiveAttributeWrite) {
  vfs::MemFileSystem fs;
  comm::World::run(1, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(0);
    w.register_pane(0, &b);

    Rochdf io(comm, env, fs, opts());
    io.write_attribute(com, IoRequest{"fluid", "pressure", "sel", 0.0});
    io.sync();
    shdf::Reader r(fs, "sel_p0000.shdf");
    EXPECT_TRUE(r.has_dataset("fluid/block_000000/field:pressure"));
    EXPECT_FALSE(r.has_dataset("fluid/block_000000/coords"));
  });
}

TEST_P(RochdfTest, SuccessiveSnapshotsAllComplete) {
  vfs::MemFileSystem fs;
  comm::World::run(2, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(comm.rank());
    w.register_pane(comm.rank(), &b);

    Rochdf io(comm, env, fs, opts());
    for (int snap = 0; snap < 5; ++snap) {
      // Each snapshot captures a different field value.
      b.field("pressure").data.assign(b.field("pressure").data.size(),
                                      static_cast<double>(snap));
      io.write_attribute(
          com, IoRequest{"fluid", "all", snap_name("s", snap),
                         static_cast<double>(snap)});
    }
    io.sync();
    for (int snap = 0; snap < 5; ++snap) {
      shdf::Reader r(fs, Rochdf::proc_file("", snap_name("s", snap),
                                           comm.rank()));
      const auto p = r.read<double>(
          roccom::block_prefix("fluid", comm.rank()) + "field:pressure");
      EXPECT_EQ(p[0], static_cast<double>(snap))
          << "snapshot " << snap << " holds wrong data";
    }
  });
}

TEST_P(RochdfTest, FetchBlocksAcrossDifferentProcessCount) {
  // Written with 4 processes, fetched with 2 -- Rochdf scans all files.
  vfs::MemFileSystem fs;
  comm::World::run(4, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(comm.rank());
    w.register_pane(comm.rank(), &b);
    Rochdf io(comm, env, fs, opts());
    io.write_attribute(com, IoRequest{"fluid", "all", "fetch", 0.0});
    io.sync();
  });
  comm::World::run(2, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Rochdf io(comm, env, fs, opts());
    EXPECT_EQ(io.list_panes("fetch"), (std::vector<int>{0, 1, 2, 3}));
    // Each new process claims two blocks.
    const std::vector<int> mine = comm.rank() == 0 ? std::vector<int>{0, 1}
                                                   : std::vector<int>{2, 3};
    const auto blocks = io.fetch_blocks("fetch", mine);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0].id(), mine[0]);
    EXPECT_EQ(blocks[1].id(), mine[1]);
    EXPECT_EQ(blocks[0].state_checksum(), make_block(mine[0]).state_checksum());
  });
}

TEST_P(RochdfTest, SnapshotExcludesFilesOfALongerBasename) {
  // "state_post" starts with "state_": its files must not join snapshot
  // "state", whether they hold the same pane ids or other ones.
  for (const auto& post_ids :
       {std::vector<int>{0, 1}, std::vector<int>{10, 11}}) {
    vfs::MemFileSystem fs;
    comm::World::run(1, [&](comm::Comm& comm) {
      comm::RealEnv env;
      Rochdf io(comm, env, fs, opts());
      auto write = [&](const std::string& file, const std::vector<int>& ids,
                       int n) {
        Roccom com;
        auto& w = com.create_window("fluid");
        std::vector<mesh::MeshBlock> blocks;
        for (int id : ids) blocks.push_back(make_block(id, n));
        for (auto& b : blocks) w.register_pane(b.id(), &b);
        io.write_attribute(com, IoRequest{"fluid", "all", file, 0.0});
        io.sync();
      };
      write("state", {0, 1}, 4);
      write("state_post", post_ids, 5);

      EXPECT_EQ(io.list_panes("state"), (std::vector<int>{0, 1}));
      const auto blocks = io.fetch_blocks("state", {0, 1});
      ASSERT_EQ(blocks.size(), 2u);
      for (const auto& b : blocks)
        EXPECT_EQ(b.state_checksum(), make_block(b.id()).state_checksum());
    });
  }
}

TEST_P(RochdfTest, FetchBlocksNamesEveryMissingPane) {
  vfs::MemFileSystem fs;
  comm::World::run(1, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Rochdf io(comm, env, fs, opts());
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b0 = make_block(0);
    auto b1 = make_block(1);
    w.register_pane(0, &b0);
    w.register_pane(1, &b1);
    io.write_attribute(com, IoRequest{"fluid", "all", "partial", 0.0});
    io.sync();

    try {
      (void)io.fetch_blocks("partial", {0, 1, 5});
      ADD_FAILURE() << "no IoError for pane 5";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "restart from 'partial': blocks not found: 5"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(io.fetch_blocks("partial", {0, 1}).size(), 2u);
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, RochdfTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Threaded" : "Plain";
                         });

// --- T-Rochdf-specific semantics ---------------------------------------------

TEST(TRochdf, VisibleCallDoesNotWriteSynchronously) {
  // After write_attribute returns (without sync), the data may not be on
  // "disk" yet -- but after sync it must be.
  vfs::MemFileSystem fs;
  comm::World::run(1, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(0, 12);
    w.register_pane(0, &b);

    Options o;
    o.threaded = true;
    Rochdf io(comm, env, fs, o);
    io.write_attribute(com, IoRequest{"fluid", "all", "bg", 0.0});
    const auto st = io.stats();
    EXPECT_EQ(st.write_calls, 1u);
    EXPECT_GT(st.bytes_buffered, 0u);
    io.sync();
    EXPECT_TRUE(fs.exists("bg_p0000.shdf"));
    EXPECT_EQ(io.stats().blocks_written, 1u);
  });
}

/// Real environment whose gates report every wait, with the waiting
/// thread, so a test can act exactly once a given thread is blocked on a
/// service's gate.
class WaitWatchingEnv final : public comm::Env {
 public:
  double now() override { return real_.now(); }
  void compute(double seconds) override { real_.compute(seconds); }
  void charge_local_copy(uint64_t bytes) override {
    real_.charge_local_copy(bytes);
  }
  std::unique_ptr<comm::Worker> spawn_worker(
      std::function<void()> body) override {
    return real_.spawn_worker(std::move(body));
  }
  std::unique_ptr<comm::Gate> make_gate() override {
    return std::make_unique<WatchedGate>(*this);
  }

  /// Blocks until thread `id` has started a gate wait.
  void await_wait_by(std::thread::id id) {
    MutexLock lock(mu_);
    while (std::find(waiters_.begin(), waiters_.end(), id) == waiters_.end())
      cv_.wait(mu_);
  }

 private:
  class WatchedGate final : public comm::Gate {
   public:
    explicit WatchedGate(WaitWatchingEnv& env) : env_(env) {}

   protected:
    void do_lock() override { lock_.lock(); }
    void do_unlock() override { lock_.unlock(); }
    void do_wait() override {
      // Reported while lock_ is still held: whoever the report wakes can
      // only change the gate's state once this thread is really waiting.
      env_.note_wait();
      cv_.wait(lock_);
    }
    void do_notify_all() override { cv_.notify_all(); }

   private:
    WaitWatchingEnv& env_;
    Mutex lock_{"watched-gate"};
    CondVar cv_;
  };

  void note_wait() {
    MutexLock lock(mu_);
    waiters_.push_back(std::this_thread::get_id());
    cv_.notify_all();
  }

  comm::RealEnv real_;
  Mutex mu_{"wait-watch"};
  CondVar cv_;
  std::vector<std::thread::id> waiters_ ROC_GUARDED_BY(mu_);
};

TEST(TRochdf, AtMostOneSnapshotInFlight) {
  // Queue many snapshots back-to-back; the per-snapshot back-pressure
  // guarantees they are all written completely and in order.  The
  // worker's writes are held until the application thread blocks on the
  // service, so snapshot 0 is still being written when snapshot 1 arrives:
  // the wait is certain, not a matter of timing.
  vfs::MemFileSystem mem;
  testfs::RecordingFileSystem fs(mem, /*hold_writes=*/true);
  comm::World::run(1, [&](comm::Comm& comm) {
    WaitWatchingEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(0, 10);
    w.register_pane(0, &b);

    Options o;
    o.threaded = true;
    Rochdf io(comm, env, fs, o);
    Thread releaser([&, app = std::this_thread::get_id()] {
      env.await_wait_by(app);
      fs.release();
    });
    for (int snap = 0; snap < 8; ++snap) {
      b.field("pressure").data.assign(b.field("pressure").data.size(),
                                      static_cast<double>(snap));
      io.write_attribute(com,
                         IoRequest{"fluid", "all", snap_name("q", snap),
                                   static_cast<double>(snap)});
    }
    io.sync();
    releaser.join();
    for (int snap = 0; snap < 8; ++snap) {
      shdf::Reader r(fs, snap_name("q", snap, "_p0000.shdf"));
      EXPECT_EQ(r.read<double>("fluid/block_000000/field:pressure")[0],
                static_cast<double>(snap));
    }
    EXPECT_GT(io.stats().snapshot_waits, 0u);

    // Snapshot k+1's file is opened only after snapshot k's is closed.
    const auto events = fs.events();
    const auto at = [&](const std::string& event) {
      const auto it = std::find(events.begin(), events.end(), event);
      EXPECT_NE(it, events.end()) << event;
      return it - events.begin();
    };
    for (int snap = 0; snap + 1 < 8; ++snap)
      EXPECT_LT(at(snap_name("close q", snap, "_p0000.shdf")),
                at(snap_name("open q", snap + 1, "_p0000.shdf")))
          << "snapshot " << snap;
  });
}

TEST(TRochdf, BackgroundWriteErrorSurfacesOnTheNextCall) {
  // A write that fails on the worker thread reaches the application as the
  // IoError itself, from the next sync or write_attribute, every time
  // after; the destructor neither throws nor hangs.
  vfs::MemFileSystem mem;
  testfs::CrashingFileSystem fs(mem);
  fs.crash_at = 3;  // open, superblock, dataset seek: the first dataset
                    // write fails, on the worker thread
  ScopedLogCapture quiet;  // the failed file's close and the teardown log
  comm::World::run(1, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(0);
    w.register_pane(0, &b);

    Options o;
    o.threaded = true;
    Rochdf io(comm, env, fs, o);
    io.write_attribute(com, IoRequest{"fluid", "all", "bad", 0.0});
    EXPECT_THROW(io.sync(), IoError);
    EXPECT_THROW(io.write_attribute(com, IoRequest{"fluid", "all", "bad", 0.0}),
                 IoError);
    EXPECT_THROW(
        io.write_attribute(com, IoRequest{"fluid", "all", "next", 0.0}),
        IoError);
    EXPECT_THROW(io.sync(), IoError);
  });
}

TEST(TRochdf, DestructorDrainsOutstandingWrites) {
  vfs::MemFileSystem fs;
  comm::World::run(1, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(0);
    w.register_pane(0, &b);
    {
      Options o;
      o.threaded = true;
      Rochdf io(comm, env, fs, o);
      io.write_attribute(com, IoRequest{"fluid", "all", "drop", 0.0});
      // no sync -- destructor must not lose the snapshot
    }
    shdf::Reader r(fs, "drop_p0000.shdf");
    EXPECT_EQ(roccom::pane_ids_in_file(r, "fluid"), std::vector<int>{0});
  });
}

TEST(TRochdf, SyncIsIdempotentAndReentrant) {
  vfs::MemFileSystem fs;
  comm::World::run(1, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b = make_block(0);
    w.register_pane(0, &b);
    Options o;
    o.threaded = true;
    Rochdf io(comm, env, fs, o);
    io.sync();  // nothing outstanding
    io.write_attribute(com, IoRequest{"fluid", "all", "x", 0.0});
    io.sync();
    io.sync();
    EXPECT_TRUE(fs.exists("x_p0000.shdf"));
  });
}

TEST(Rochdf, StatsAccumulate) {
  vfs::MemFileSystem fs;
  comm::World::run(1, [&](comm::Comm& comm) {
    comm::RealEnv env;
    Roccom com;
    auto& w = com.create_window("fluid");
    auto b1 = make_block(0);
    auto b2 = make_block(1);
    w.register_pane(0, &b1);
    w.register_pane(1, &b2);
    Rochdf io(comm, env, fs, Options{});
    io.write_attribute(com, IoRequest{"fluid", "all", "s1", 0.0});
    io.write_attribute(com, IoRequest{"fluid", "all", "s2", 0.0});
    const auto st = io.stats();
    EXPECT_EQ(st.write_calls, 2u);
    EXPECT_EQ(st.blocks_written, 4u);
    EXPECT_EQ(st.files_written, 2u);
  });
}

}  // namespace
}  // namespace roc::rochdf
