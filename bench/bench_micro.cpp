/// \file bench_micro.cpp
/// \brief google-benchmark micro-benchmarks of the library primitives:
/// serialization, CRC, SHDF dataset I/O, block marshalling, thread-backed
/// message passing, and the zero-copy write pipeline (chain marshalling,
/// scatter-gather ship, pooled buffers, pass-through server writes) against
/// its copying counterparts.
///
/// Accepts `--json <path>` (see bench_json.h): every run is also recorded
/// as {name, params, metric, value, units} records, one per reported
/// metric (real_time plus any rate counters).
///
/// Benches whose work runs on other threads (comm worlds) use
/// UseRealTime(): their rates are over wall time, not over the
/// submitting thread's CPU time.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bench_json.h"
#include "comm/thread_comm.h"
#include "telemetry/trace.h"
#include "mesh/generators.h"
#include "roccom/block_wire.h"
#include "shdf/reader.h"
#include "shdf/writer.h"
#include "util/buffer.h"
#include "util/crc64.h"
#include "util/serialize.h"
#include "vfs/vfs.h"

namespace {

using namespace roc;

void BM_Crc64(benchmark::State& state) {
  std::vector<unsigned char> data(static_cast<size_t>(state.range(0)));
  std::iota(data.begin(), data.end(), 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(crc64(data.data(), data.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc64)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// The portable slicing-by-8 kernel, paired with BM_Crc64 in bench_compare:
// on a CPU with PCLMULQDQ the dispatched checksum must keep its edge, so a
// silent fallback to this kernel fails the gate.
void BM_Crc64Sliced(benchmark::State& state) {
  std::vector<unsigned char> data(static_cast<size_t>(state.range(0)));
  std::iota(data.begin(), data.end(), 0);
  for (auto _ : state) {
    const uint64_t s = crc64_update_sliced(~0ULL, data.data(), data.size());
    benchmark::DoNotOptimize(~s);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc64Sliced)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// Bit-at-a-time reference implementation, benchmarked so the table-driven
// speedup is visible in the same report (small sizes only; it is slow).
void BM_Crc64Bitwise(benchmark::State& state) {
  std::vector<unsigned char> data(static_cast<size_t>(state.range(0)));
  std::iota(data.begin(), data.end(), 0);
  for (auto _ : state) {
    const uint64_t s = crc64_update_bitwise(~0ULL, data.data(), data.size());
    benchmark::DoNotOptimize(~s);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc64Bitwise)->Arg(1 << 10)->Arg(1 << 16);

void BM_SerializeVector(benchmark::State& state) {
  std::vector<double> v(static_cast<size_t>(state.range(0)), 1.5);
  for (auto _ : state) {
    ByteWriter w;
    w.put_vector(v);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_SerializeVector)->Arg(1 << 8)->Arg(1 << 14);

void BM_ShdfWriteDataset(benchmark::State& state) {
  const auto kind = state.range(1) == 0 ? shdf::DirectoryKind::kLinear
                                        : shdf::DirectoryKind::kIndexed;
  std::vector<double> payload(static_cast<size_t>(state.range(0)), 2.0);
  vfs::MemFileSystem fs;
  int file_id = 0;
  for (auto _ : state) {
    // Piecewise append: `"lit" + std::to_string(...)` trips GCC 12's
    // bogus -Werror=restrict at -O3 (PR105651).
    std::string fname = "f";
    fname += std::to_string(file_id++);
    shdf::Writer w(fs, fname, kind);
    for (int i = 0; i < 32; ++i)
      w.add("ds_" + std::to_string(i), payload);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32 *
                          state.range(0) * 8);
}
BENCHMARK(BM_ShdfWriteDataset)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({16384, 0})
    ->Args({16384, 1});

void BM_ShdfReadDataset(benchmark::State& state) {
  vfs::MemFileSystem fs;
  std::vector<double> payload(static_cast<size_t>(state.range(0)), 2.0);
  {
    shdf::Writer w(fs, "f");
    for (int i = 0; i < 32; ++i)
      w.add("ds_" + std::to_string(i), payload);
  }
  shdf::Reader r(fs, "f");
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.read<double>("ds_" + std::to_string(i % 32)));
    ++i;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_ShdfReadDataset)->Arg(256)->Arg(16384);

/// Encode + decode through the production paths: the chain encoder
/// (flattened, as a receiver holds it) and decode_block, the restart and
/// migration decoder.
void BM_WireBlockRoundTrip(benchmark::State& state) {
  auto b = mesh::MeshBlock::structured(0, {12, 12, 12});
  mesh::add_fluid_schema(b);
  for (auto _ : state) {
    const auto bytes = roccom::WireBlock::serialize_chain(b, "all").to_vector();
    benchmark::DoNotOptimize(roccom::decode_block(bytes.data(), bytes.size()));
  }
}
BENCHMARK(BM_WireBlockRoundTrip);

void BM_ThreadCommPingPong(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    comm::World::run(2, [bytes](comm::Comm& comm) {
      std::vector<unsigned char> buf(bytes);
      for (int i = 0; i < 50; ++i) {
        if (comm.rank() == 0) {
          comm.send(1, 1, buf.data(), buf.size());
          (void)comm.recv(1, 2);
        } else {
          (void)comm.recv(0, 1);
          comm.send(0, 2, buf.data(), buf.size());
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ThreadCommPingPong)->Arg(64)->Arg(65536)->UseRealTime();

void BM_Allgather(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    comm::World::run(n, [](comm::Comm& comm) {
      std::vector<unsigned char> mine(128,
                                      static_cast<unsigned char>(comm.rank()));
      for (int i = 0; i < 10; ++i)
        benchmark::DoNotOptimize(comm.allgather(mine));
    });
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_Allgather)->Arg(4)->Arg(16)->UseRealTime();

// --- zero-copy write pipeline vs the copying path --------------------------

/// A structured block with the fluid schema and non-trivial field data; the
/// marshalling unit the pipeline benchmarks ship.
mesh::MeshBlock marshal_block(int n) {
  auto b = mesh::MeshBlock::structured(1, {n, n, n});
  mesh::add_fluid_schema(b);
  auto& p = b.field("pressure");
  std::iota(p.data.begin(), p.data.end(), 0.0);
  return b;
}

/// Copying marshal: materialise a WireBlock (copies every array), then
/// serialize (copies them again into the wire buffer).
void BM_WireMarshalCopy(benchmark::State& state) {
  const auto b = marshal_block(static_cast<int>(state.range(0)));
  int64_t bytes = 0;
  for (auto _ : state) {
    const auto wire = roccom::WireBlock::from_block(b, "all").serialize();
    bytes = static_cast<int64_t>(wire.size());
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_WireMarshalCopy)->Arg(16)->Arg(48);

/// Chain marshal: header bytes only, payload segments alias the block;
/// the pool gather is the single permitted copy.  One untimed op warms the
/// pool and the chain's segment list; alloc_test asserts the steady state
/// after it allocates nothing.
void BM_WireMarshalChain(benchmark::State& state) {
  const auto b = marshal_block(static_cast<int>(state.range(0)));
  BufferPool pool;
  BufferChain chain;
  roccom::WireBlock::serialize_chain_into(b, "all", &pool, chain);
  {
    const SharedBuffer warm = pool.gather(chain);
    benchmark::DoNotOptimize(warm.data());
  }
  int64_t bytes = 0;
  for (auto _ : state) {
    roccom::WireBlock::serialize_chain_into(b, "all", &pool, chain);
    const SharedBuffer wire = pool.gather(chain);
    bytes = static_cast<int64_t>(wire.size());
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_WireMarshalChain)->Arg(16)->Arg(48);

constexpr int kShipsPerRun = 4;

/// Marshal + ship, copy path: serialize to a vector, send raw bytes (the
/// mailbox copies them again).  This is the pre-zero-copy client hot path.
void BM_BlockShipCopy(benchmark::State& state) {
  const auto b = marshal_block(static_cast<int>(state.range(0)));
  const int64_t wire_bytes = static_cast<int64_t>(
      roccom::WireBlock::from_block(b, "all").serialize().size());
  for (auto _ : state) {
    comm::World::run(2, [&b](comm::Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < kShipsPerRun; ++i) {
          const auto bytes =
              roccom::WireBlock::from_block(b, "all").serialize();
          comm.send(1, 1, bytes.data(), bytes.size());
        }
      } else {
        for (int i = 0; i < kShipsPerRun; ++i) {
          auto m = comm.recv(0, 1);
          benchmark::DoNotOptimize(m.payload.data());
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kShipsPerRun * wire_bytes);
}
BENCHMARK(BM_BlockShipCopy)->Arg(16)->Arg(48)->UseRealTime();

/// Marshal + ship, zero-copy path: chain-serialize (payloads borrowed) and
/// sendv gathers once straight into the delivered message.  Each World is
/// fresh, so the first ship of every run warms the world gather pool, the
/// header pool, and the chain's segment list; the ships after it are the
/// steady state (alloc_test asserts they allocate nothing).
void BM_BlockShipZeroCopy(benchmark::State& state) {
  const auto b = marshal_block(static_cast<int>(state.range(0)));
  const int64_t wire_bytes = static_cast<int64_t>(
      roccom::WireBlock::serialize_chain(b, "all").total_bytes());
  for (auto _ : state) {
    comm::World::run(2, [&b](comm::Comm& comm) {
      if (comm.rank() == 0) {
        BufferPool pool;
        BufferChain chain;
        roccom::WireBlock::serialize_chain_into(b, "all", &pool, chain);
        comm.sendv(1, 1, chain);  // warm-up ship
        for (int i = 0; i < kShipsPerRun; ++i) {
          roccom::WireBlock::serialize_chain_into(b, "all", &pool, chain);
          comm.sendv(1, 1, chain);
        }
      } else {
        for (int i = 0; i < kShipsPerRun + 1; ++i) {
          auto m = comm.recv(0, 1);
          benchmark::DoNotOptimize(m.payload.data());
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (kShipsPerRun + 1) * wire_bytes);
}
BENCHMARK(BM_BlockShipZeroCopy)->Arg(16)->Arg(48)->UseRealTime();

constexpr int kWritesPerRun = 16;

/// Pre-built per-op window names for the server-write benches: shdf
/// rejects duplicate dataset names, so writing the same block repeatedly
/// through one open writer needs a distinct window each time.  All names
/// share one length so retained prefix scratch never regrows.
std::vector<std::string> write_windows() {
  std::vector<std::string> windows;
  windows.reserve(kWritesPerRun + 1);
  for (int i = 0; i <= kWritesPerRun; ++i) {
    std::string n = "w";
    n += static_cast<char>('a' + i / 10);
    n += static_cast<char>('0' + i % 10);
    windows.push_back(n);
  }
  return windows;
}

/// Server write, materialising path: received wire bytes are copied out,
/// deserialised into a MeshBlock, and re-marshalled dataset by dataset.
/// Structured as the pass-through bench below (one writer per run,
/// kWritesPerRun + 1 writes) so the pair ratio compares per-write cost.
void BM_ServerWriteMaterialize(benchmark::State& state) {
  const auto b = marshal_block(static_cast<int>(state.range(0)));
  const SharedBuffer wire =
      SharedBuffer::adopt(roccom::WireBlock::from_block(b, "all").serialize());
  const std::vector<std::string> windows = write_windows();
  for (auto _ : state) {
    vfs::MemFileSystem fs;
    shdf::Writer w(fs, "f");
    for (int i = 0; i <= kWritesPerRun; ++i)
      roccom::WireBlock::deserialize(wire.to_vector())
          .write_to(w, windows[i], 0.0);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (kWritesPerRun + 1) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_ServerWriteMaterialize)->Arg(16)->Arg(48);

/// Server write, pass-through path: parse the header in place and gather
/// dataset payloads to the file straight from the retained wire bytes.
/// The view is parsed once up front (the server holds a parsed item per
/// buffered block) and the write scratch is retained across ops, so the
/// steady state is the writer's put_dataset loop alone.  shdf rejects
/// duplicate dataset names, so each op writes under its own pre-built
/// window name (all the same length — the scratch prefix never regrows);
/// the first write per run warms the writer's header/segment scratches
/// (alloc_test asserts the writes after it allocate nothing).
void BM_ServerWritePassThrough(benchmark::State& state) {
  const auto b = marshal_block(static_cast<int>(state.range(0)));
  const SharedBuffer wire =
      SharedBuffer::adopt(roccom::WireBlock::from_block(b, "all").serialize());
  const roccom::WireBlockView view = roccom::WireBlockView::parse(wire);
  roccom::WriteScratch scratch;
  const std::vector<std::string> windows = write_windows();
  for (auto _ : state) {
    vfs::MemFileSystem fs;
    shdf::Writer w(fs, "f");
    view.write_to(w, windows[0], 0.0, &scratch);
    for (int i = 1; i <= kWritesPerRun; ++i)
      view.write_to(w, windows[i], 0.0, &scratch);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (kWritesPerRun + 1) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_ServerWritePassThrough)->Arg(16)->Arg(48);

/// Marshal + ship with the write-pipeline trace spans around each stage,
/// tracing left in its default (disabled) state.  Paired with
/// BM_BlockShipZeroCopy this bounds the telemetry idle cost on the PR 2
/// zero-copy hot path: each disabled span is one relaxed atomic load and a
/// branch, so the pair must stay within ~2%.
void BM_BlockShipZeroCopyTraced(benchmark::State& state) {
  const auto b = marshal_block(static_cast<int>(state.range(0)));
  const int64_t wire_bytes = static_cast<int64_t>(
      roccom::WireBlock::serialize_chain(b, "all").total_bytes());
  for (auto _ : state) {
    comm::World::run(2, [&b](comm::Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < kShipsPerRun; ++i) {
          ROC_TRACE_SPAN_D("client", "snapshot.perceived", "micro");
          BufferChain chain;
          {
            ROC_TRACE_SPAN("client", "marshal");
            chain = roccom::WireBlock::serialize_chain(b, "all");
          }
          {
            ROC_TRACE_SPAN("client", "ship");
            comm.sendv(1, 1, chain);
          }
        }
      } else {
        for (int i = 0; i < kShipsPerRun; ++i) {
          auto m = comm.recv(0, 1);
          benchmark::DoNotOptimize(m.payload.data());
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kShipsPerRun * wire_bytes);
}
BENCHMARK(BM_BlockShipZeroCopyTraced)
    ->Arg(16)
    ->Arg(48)
    ->UseRealTime();

/// The bare cost of one disabled span: the floor of the traced/untraced
/// comparison above (expected: a load, a branch, nanoseconds).
void BM_TraceSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    ROC_TRACE_SPAN("bench", "disabled");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

/// One pooled acquire/seal/release cycle vs allocating fresh storage each
/// time: the snapshot-loop allocation churn BufferPool removes.
void BM_BufferPoolCycle(benchmark::State& state) {
  BufferPool pool;
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto v = pool.acquire(n);
    v[0] = 1;
    const SharedBuffer buf = pool.seal(std::move(v));
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolCycle)->Arg(1 << 16)->Arg(1 << 22);

void BM_FreshAllocCycle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<unsigned char> v(n);
    v[0] = 1;
    const SharedBuffer buf = SharedBuffer::adopt(std::move(v));
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreshAllocCycle)->Arg(1 << 16)->Arg(1 << 22);

/// Tees every finished run into the JSON emitter (one record per reported
/// metric) and then defers to the normal console output.
class TeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit TeeReporter(bench::JsonEmitter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      json_->record(name, {}, "real_time", run.GetAdjustedRealTime(),
                    benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [counter_name, counter] : run.counters)
        json_->record(name, {}, counter_name, counter,
                      counter_name.find("per_second") != std::string::npos
                          ? "1/s"
                          : "");
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonEmitter* json_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json(&argc, argv);  // strips --json before Initialize
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
