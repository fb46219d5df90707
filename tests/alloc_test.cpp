/// \file alloc_test.cpp
/// \brief The operator new/delete interposer (src/check/alloc_hook):
/// exact per-thread counts, exempt-vs-charged accounting, the scope
/// registry, abort mode, and the zero-allocation steady states of the
/// three hot pipelines (client marshal, rank-to-rank ship, server
/// pass-through write) on a 48^3 fluid block -- the runtime face of
/// rocanalyze R8.  Built only under ROCPIO_CHECK (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>

#include "check/alloc_hook.h"
#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "mesh/mesh_block.h"
#include "rocpanda/wire.h"
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
    ROC_ALLOC_EXEMPT();
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

TEST(AllocGate, ScopeRegistryAccumulatesByLabel) {
  check::alloc_registry_reset();
  for (int pass = 0; pass < 2; ++pass) {
    void* tok = check::alloc_scope_enter("AllocGateTest::charged");
    auto* p = new int(pass);
    escape(p);
    delete p;
    check::alloc_scope_exit(tok);
  }
  {
    void* tok = check::alloc_scope_enter("AllocGateTest::clean");
    check::alloc_scope_exit(tok);
  }
  const check::AllocScopeStats* charged = nullptr;
  const check::AllocScopeStats* clean = nullptr;
  const auto snap = check::alloc_registry_snapshot();
  for (const auto& s : snap) {
    if (s.label == "AllocGateTest::charged") charged = &s;
    if (s.label == "AllocGateTest::clean") clean = &s;
  }
  ASSERT_NE(charged, nullptr);
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(charged->entries, 2u);
  EXPECT_EQ(charged->allocs, 2u);
  EXPECT_GE(charged->bytes, 2 * sizeof(int));
  EXPECT_FALSE(charged->frames.empty());
  EXPECT_EQ(clean->entries, 1u);
  EXPECT_EQ(clean->allocs, 0u);
}

TEST(AllocGateDeathTest, AbortModeTripsOnChargedAllocation) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The child flips to kAbort and allocates inside an open scope; the
  // parent's mode is untouched (death tests fork).
  EXPECT_DEATH(
      {
        check::set_alloc_mode(check::AllocMode::kAbort);
        void* tok = check::alloc_scope_enter("AllocAbort::scope");
        auto* p = new int(7);
        escape(p);
        check::alloc_scope_exit(tok);
      },
      "ROC_ASSERT_NO_ALLOC violated");
  EXPECT_EQ(check::alloc_mode(), check::AllocMode::kCount);
}

// --- zero-alloc steady states of the product pipelines -----------------------
//
// Each test warms one operation (pool seeding, capacity growth, writer
// setup are the sanctioned one-time costs), then asserts the steady-state
// repeats charge NOTHING.  These are the same three paths bench_micro
// gates via allocs_per_op and check_alloc_subset.py proves are inside the
// static R8 hot closure.

TEST(ZeroAllocPipeline, MarshalSteadyStateIsSilent) {
  const auto b = fluid_block(48);
  BufferPool pool;
  BufferChain chain;
  rocpanda::WireBlock::serialize_chain_into(b, "all", &pool, chain);
  { auto warm = pool.gather(chain); escape(warm.data()); }
  void* tok = check::alloc_scope_enter("ZeroAllocPipeline::marshal");
  const uint64_t c0 = check::thread_charged_allocs();
  for (int i = 0; i < 4; ++i) {
    rocpanda::WireBlock::serialize_chain_into(b, "all", &pool, chain);
    auto wire = pool.gather(chain);
    escape(wire.data());
  }
  const uint64_t charged = check::thread_charged_allocs() - c0;
  check::alloc_scope_exit(tok);
  EXPECT_EQ(charged, 0u);
}

TEST(ZeroAllocPipeline, ShipSteadyStateIsSilent) {
  const auto b = fluid_block(48);
  std::atomic<uint64_t> charged{0};
  comm::World::run(2, [&](comm::Comm& comm) {
    if (comm.rank() == 0) {
      BufferPool pool;
      BufferChain chain;
      rocpanda::WireBlock::serialize_chain_into(b, "all", &pool, chain);
      comm.sendv(1, 1, chain);  // warm-up ship, excluded from accounting
      const uint64_t c0 = check::thread_charged_allocs();
      for (int i = 0; i < 4; ++i) {
        rocpanda::WireBlock::serialize_chain_into(b, "all", &pool, chain);
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
      rocpanda::WireBlock::from_block(b, "all").serialize());
  const auto view = rocpanda::WireBlockView::parse(wire);
  rocpanda::WriteScratch scratch;
  vfs::MemFileSystem fs;
  shdf::Writer w(fs, "f");
  view.write_to(w, "wa0", 0.0, &scratch);  // warm
  void* tok = check::alloc_scope_enter("ZeroAllocPipeline::pass_through");
  const uint64_t c0 = check::thread_charged_allocs();
  view.write_to(w, "wa1", 0.0, &scratch);
  view.write_to(w, "wa2", 0.0, &scratch);
  const uint64_t charged = check::thread_charged_allocs() - c0;
  check::alloc_scope_exit(tok);
  EXPECT_EQ(charged, 0u);
}

}  // namespace
}  // namespace roc
