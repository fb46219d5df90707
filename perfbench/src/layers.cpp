#include "layers.h"

#include <cstring>

#include "telemetry/trace.h"

namespace perfbench {

void SpanLedger::discard() {
  (void)roc::telemetry::collect_trace();
  vfs_by_parent_.clear();
}

void SpanLedger::merge(const SpanLedger& other) {
  for (const auto& [key, sum] : other.sums_) {
    sums_[key].total_s += sum.total_s;
    sums_[key].vfs_child_s += sum.vfs_child_s;
  }
}

void SpanLedger::drain() {
  const roc::telemetry::Trace trace = roc::telemetry::collect_trace();
  // A child span ends before its parent, so it is drained in the same batch
  // or an earlier one: fold children first, then claim them by parent id.
  for (const auto& ev : trace.events)
    if (ev.dur >= 0 && std::strcmp(ev.category, "vfs") == 0)
      vfs_by_parent_[ev.parent_id] += ev.dur;
  for (const auto& ev : trace.events) {
    if (ev.dur < 0) continue;
    Sum& s = sums_[std::string(ev.category) + "." + ev.name];
    s.total_s += ev.dur;
    const auto it = vfs_by_parent_.find(ev.span_id);
    if (it != vfs_by_parent_.end()) {
      s.vfs_child_s += it->second;
      vfs_by_parent_.erase(it);
    }
  }
}

double SpanLedger::total_ms(const std::string& category,
                            const std::string& name) const {
  const auto it = sums_.find(category + "." + name);
  return it == sums_.end() ? 0.0 : it->second.total_s * 1e3;
}

double SpanLedger::vfs_child_ms(const std::string& category,
                                const std::string& name) const {
  const auto it = sums_.find(category + "." + name);
  return it == sums_.end() ? 0.0 : it->second.vfs_child_s * 1e3;
}

}  // namespace perfbench
