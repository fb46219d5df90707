/// \file bench_shdf_scaling.cpp
/// \brief Ablation A3 (DESIGN.md §4): the HDF4-vs-HDF5 premise.
///
/// The paper leans on the observation that HDF4's read/write performance
/// "does not scale well as the number of datasets increases in a file"
/// (§4.2, §7.1 — it is why Rocpanda's restart is expensive and why Rochdf
/// sometimes beats it).  SHDF reproduces the mechanism with two directory
/// engines: kLinear re-persists the in-file directory after every append
/// (HDF4-like bookkeeping, O(n^2) total directory bytes) and scans the
/// directory linearly; kIndexed writes the directory once and binary-
/// searches.  This bench measures REAL wall time on the in-memory file
/// system as the dataset count grows.

#include <cstdio>
#include <vector>

#include "shdf/reader.h"
#include "shdf/writer.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "vfs/vfs.h"

#include "bench_json.h"

namespace {

using namespace roc;

struct Times {
  double write_s = 0;
  double open_s = 0;    ///< Reader construction (directory + headers).
  double lookup_s = 0;  ///< 1000 random name lookups.
};

Times run(shdf::DirectoryKind kind, int datasets) {
  vfs::MemFileSystem fs;
  const std::vector<double> payload(256, 1.5);  // small datasets, many

  Times t;
  Stopwatch sw;
  {
    shdf::Writer w(fs, "scal.shdf", kind);
    for (int i = 0; i < datasets; ++i)
      w.add("block_" + std::to_string(i) + "/data", payload);
  }
  t.write_s = sw.seconds();

  sw.reset();
  shdf::Reader r(fs, "scal.shdf");
  t.open_s = sw.seconds();

  Rng rng(7);
  sw.reset();
  for (int i = 0; i < 1000; ++i) {
    const auto name =
        "block_" + std::to_string(rng.next_below(datasets)) + "/data";
    (void)r.info(name);
  }
  t.lookup_s = sw.seconds();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonEmitter json(&argc, argv);
  bench::reject_other_args(argc, argv);
  std::printf("Ablation A3: SHDF directory engines vs dataset count "
              "(real wall time, in-memory files).\n\n");
  std::printf("%10s | %12s %12s %12s | %12s %12s %12s\n", "datasets",
              "linear wr", "linear open", "linear 1k-lu", "indexed wr",
              "indexed open", "indexed 1k-lu");
  for (int n : {100, 400, 1600, 6400}) {
    const Times lin = run(shdf::DirectoryKind::kLinear, n);
    const Times idx = run(shdf::DirectoryKind::kIndexed, n);
    std::printf("%10d | %10.4fs %10.4fs %10.4fs | %10.4fs %10.4fs %10.4fs\n",
                n, lin.write_s, lin.open_s, lin.lookup_s, idx.write_s,
                idx.open_s, idx.lookup_s);
    const std::pair<const char*, Times> engines[] = {{"linear", lin},
                                                     {"indexed", idx}};
    for (const auto& [engine, t] : engines) {
      const std::pair<const char*, double> metrics[] = {
          {"write_time", t.write_s},
          {"open_time", t.open_s},
          {"lookup_1k_time", t.lookup_s}};
      for (const auto& [metric, v] : metrics)
        json.record("shdf_scaling",
                    {bench::param("engine", engine),
                     bench::param("datasets", n)},
                    metric, v, "s");
    }
  }
  std::printf("\nexpected: linear (HDF4-like) write cost grows "
              "super-linearly with dataset count and lookups grow linearly; "
              "indexed (HDF5-like) stays near-linear/logarithmic — the "
              "paper's premise for both the small-block write penalty and "
              "the Rocpanda restart cost.\n");
  return 0;
}
