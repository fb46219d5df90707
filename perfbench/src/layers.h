#pragma once
/// \file layers.h
/// \brief Folds the spans the program already emits (telemetry/trace.h)
/// into per-name totals for the layer budget.
///
/// The trace rings hold 16k events per thread, fewer than a fine-grained
/// snapshot loop produces, so the benchmark drains them while a phase runs
/// and keeps only sums.  Besides each span name's total duration, the ledger
/// keeps the part covered by its direct "vfs" children, so a writer span's
/// self time excluding the file system is total minus that part.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

namespace perfbench {

class SpanLedger {
 public:
  /// Drains every trace ring and folds the events in.
  void drain();
  /// Drains every trace ring and drops the events (warm-up, other phases).
  void discard();
  /// Adds another ledger's totals (a later round of the same phase).
  void merge(const SpanLedger& other);

  /// Sum of the durations of spans `category`/`name`, in milliseconds.
  [[nodiscard]] double total_ms(const std::string& category,
                                const std::string& name) const;
  /// Sum of the durations of those spans' direct "vfs" children.
  [[nodiscard]] double vfs_child_ms(const std::string& category,
                                    const std::string& name) const;

 private:
  struct Sum {
    double total_s = 0;
    double vfs_child_s = 0;
  };
  std::map<std::string, Sum> sums_;  ///< keyed "category.name"
  /// vfs time per parent span id whose parent has not been drained yet.
  std::unordered_map<uint64_t, double> vfs_by_parent_;
};

}  // namespace perfbench
