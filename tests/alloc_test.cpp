/// \file alloc_test.cpp
/// \brief The operator new/delete interposer (src/check/alloc_hook):
/// exact per-thread counts, exempt-vs-charged accounting, and the
/// zero-allocation steady states of the three hot pipelines (client marshal, rank-to-rank ship, server
/// pass-through write) on a 48^3 fluid block -- the runtime face of
/// rocanalyze R8.  Built only under ROCPIO_CHECK (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "check/alloc_hook.h"
#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "mesh/mesh_block.h"
#include "roccom/block_wire.h"
#include "shdf/writer.h"
#include "util/buffer.h"
#include "util/hot.h"
#include "util/thread.h"
#include "vfs/vfs.h"

namespace roc {
namespace {

/// Keeps new/delete pairs observable: C++14 lets the compiler elide an
/// allocation whose pointer provably never escapes, which would break the
/// exact-count assertions below.
void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

mesh::MeshBlock fluid_block(int n) {
  auto b = mesh::MeshBlock::structured(1, {n, n, n});
  mesh::add_fluid_schema(b);
  auto& p = b.field("pressure");
  std::iota(p.data.begin(), p.data.end(), 0.0);
  return b;
}

// --- raw interposer counters -------------------------------------------------

TEST(AllocInterposer, CountsExactSingleThreadAllocations) {
  const uint64_t a0 = check::thread_allocs();
  const uint64_t f0 = check::thread_frees();
  const uint64_t b0 = check::thread_alloc_bytes();
  auto* arr = new uint64_t[4];
  auto* one = new uint64_t(7);
  escape(arr);
  escape(one);
  delete[] arr;
  delete one;
  EXPECT_EQ(check::thread_allocs() - a0, 2u);
  EXPECT_EQ(check::thread_frees() - f0, 2u);
  EXPECT_GE(check::thread_alloc_bytes() - b0, 5 * sizeof(uint64_t));
}

TEST(AllocInterposer, CountersArePerThread) {
  // The worker measures its own deltas; exactness shows the counters are
  // thread-local (cross-thread traffic would make them nondeterministic).
  const uint64_t total0 = check::total_allocs();
  uint64_t worker_allocs = 0;
  uint64_t worker_frees = 0;
  {
    Thread t([&] {
      const uint64_t a0 = check::thread_allocs();
      const uint64_t f0 = check::thread_frees();
      for (int i = 0; i < 5; ++i) {
        auto* p = new int(i);
        escape(p);
        delete p;
      }
      worker_allocs = check::thread_allocs() - a0;
      worker_frees = check::thread_frees() - f0;
    });
  }
  EXPECT_EQ(worker_allocs, 5u);
  EXPECT_EQ(worker_frees, 5u);
  EXPECT_GE(check::total_allocs() - total0, 5u);
}

// --- exempt vs charged accounting --------------------------------------------

TEST(AllocGate, ExemptAllocationsAreCountedButNotCharged) {
  const uint64_t a0 = check::thread_allocs();
  const uint64_t c0 = check::thread_charged_allocs();
  {
    ROC_ALLOC_EXEMPT("why: the bracket under test");
    auto* p = new int(1);
    escape(p);
    delete p;
  }
  EXPECT_EQ(check::thread_allocs() - a0, 1u);   // raw truth
  EXPECT_EQ(check::thread_charged_allocs() - c0, 0u);  // sanctioned
  auto* q = new int(2);
  escape(q);
  delete q;
  EXPECT_EQ(check::thread_charged_allocs() - c0, 1u);
}

// --- zero-alloc steady states of the product pipelines -----------------------
//
// Each test warms one operation (pool seeding, capacity growth, writer
// setup are the sanctioned one-time costs), then asserts the steady-state
// repeats charge NOTHING.

TEST(ZeroAllocPipeline, MarshalSteadyStateIsSilent) {
  const auto b = fluid_block(48);
  BufferPool pool;
  BufferChain chain;
  roccom::WireBlock::serialize_chain_into(b, "all", &pool, chain);
  { auto warm = pool.gather(chain); escape(warm.data()); }
  const uint64_t c0 = check::thread_charged_allocs();
  for (int i = 0; i < 4; ++i) {
    roccom::WireBlock::serialize_chain_into(b, "all", &pool, chain);
    auto wire = pool.gather(chain);
    escape(wire.data());
  }
  const uint64_t charged = check::thread_charged_allocs() - c0;
  EXPECT_EQ(charged, 0u);
}

TEST(ZeroAllocPipeline, ShipSteadyStateIsSilent) {
  const auto b = fluid_block(48);
  std::atomic<uint64_t> charged{0};
  comm::World::run(2, [&](comm::Comm& comm) {
    if (comm.rank() == 0) {
      BufferPool pool;
      BufferChain chain;
      roccom::WireBlock::serialize_chain_into(b, "all", &pool, chain);
      comm.sendv(1, 1, chain);  // warm-up ship, excluded from accounting
      const uint64_t c0 = check::thread_charged_allocs();
      for (int i = 0; i < 4; ++i) {
        roccom::WireBlock::serialize_chain_into(b, "all", &pool, chain);
        comm.sendv(1, 1, chain);
      }
      charged.fetch_add(check::thread_charged_allocs() - c0,
                        std::memory_order_relaxed);
    } else {
      for (int i = 0; i < 5; ++i) {
        auto m = comm.recv(0, 1);
        escape(m.payload.data());
      }
    }
  });
  EXPECT_EQ(charged.load(), 0u);
}

TEST(ZeroAllocPipeline, PassThroughWriteSteadyStateIsSilent) {
  const auto b = fluid_block(48);
  const SharedBuffer wire = SharedBuffer::adopt(
      roccom::WireBlock::from_block(b, "all").serialize());
  const auto view = roccom::WireBlockView::parse(wire);
  roccom::WriteScratch scratch;
  vfs::MemFileSystem fs;
  shdf::Writer w(fs, "f");
  view.write_to(w, "wa0", 0.0, &scratch);  // warm
  const uint64_t c0 = check::thread_charged_allocs();
  view.write_to(w, "wa1", 0.0, &scratch);
  view.write_to(w, "wa2", 0.0, &scratch);
  const uint64_t charged = check::thread_charged_allocs() - c0;
  EXPECT_EQ(charged, 0u);
}

TEST(ZeroAllocPipeline, QueuedSmallBlocksAndCloseAreSilent) {
  // `fine`'s shape: a few hundred ~20 KB blocks through one writer, whose
  // queue is written several times (6 MB against its 1 MiB bound) and then
  // by close().  The queue and its header arena are sized when the writer
  // opens, so they never grow here.
  const auto b = fluid_block(7);
  const SharedBuffer wire = SharedBuffer::adopt(
      roccom::WireBlock::from_block(b, "all").serialize());
  const auto view = roccom::WireBlockView::parse(wire);
  std::vector<std::string> windows(300, "w");
  // Appended piecewise: `"w" + std::to_string(...)` trips GCC 12's bogus
  // -Wrestrict at -O3 (PR105651).
  for (size_t i = 0; i < windows.size(); ++i)
    windows[i] += std::to_string(1000 + i);
  roccom::WriteScratch scratch;
  vfs::MemFileSystem fs;
  shdf::Writer w(fs, "f");
  view.write_to(w, "warm0", 0.0, &scratch);  // warm
  const uint64_t c0 = check::thread_charged_allocs();
  for (const std::string& window : windows)
    view.write_to(w, window, 0.0, &scratch);
  w.close();
  const uint64_t charged = check::thread_charged_allocs() - c0;
  EXPECT_EQ(charged, 0u);
  EXPECT_GT(fs.total_bytes(), 5u << 20);
}

}  // namespace
}  // namespace roc
