#include "telemetry/timeline.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>

namespace roc::telemetry {

namespace {

struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Sorts and merges overlapping intervals in place.
void merge(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::size_t out = 0;
  for (const Interval& iv : v) {
    if (out > 0 && iv.lo <= v[out - 1].hi) {
      v[out - 1].hi = std::max(v[out - 1].hi, iv.hi);
    } else {
      v[out++] = iv;
    }
  }
  v.resize(out);
}

double total(const std::vector<Interval>& merged) {
  double t = 0.0;
  for (const Interval& iv : merged) t += iv.hi - iv.lo;
  return t;
}

/// Length of `iv` not covered by the merged, sorted interval set.
double uncovered(const Interval& iv, const std::vector<Interval>& merged) {
  double remaining = iv.hi - iv.lo;
  for (const Interval& m : merged) {
    if (m.lo >= iv.hi) break;
    const double lo = std::max(iv.lo, m.lo);
    const double hi = std::min(iv.hi, m.hi);
    if (hi > lo) remaining -= hi - lo;
  }
  return std::max(remaining, 0.0);
}

struct PerBase {
  // Perceived intervals per application thread: the per-thread unions are
  // maxed (concurrent ranks), not summed.
  std::map<int, std::vector<Interval>> perceived_by_tid;
  std::vector<Interval> background;       // summed
  std::vector<int> background_tids;       // parallel to `background`
  std::set<int> writer_tids;
  double raw_write_s = 0.0;
};

bool is_vfs_write(const TraceEvent& ev) {
  if (std::strcmp(ev.category, "vfs") != 0) return false;
  return std::strcmp(ev.name, "write") == 0 ||
         std::strcmp(ev.name, "open") == 0;
}

}  // namespace

std::vector<SnapshotTimeline> snapshot_timelines(const Trace& trace) {
  std::map<std::string, PerBase> bases;
  for (const TraceEvent& ev : trace.events) {
    if (ev.dur < 0.0 || ev.detail.empty()) continue;
    if (std::strcmp(ev.name, "snapshot.perceived") == 0) {
      bases[ev.detail].perceived_by_tid[ev.tid].push_back(
          {ev.ts, ev.ts + ev.dur});
    } else if (std::strcmp(ev.name, "snapshot.background") == 0) {
      PerBase& pb = bases[ev.detail];
      pb.background.push_back({ev.ts, ev.ts + ev.dur});
      pb.background_tids.push_back(ev.tid);
      pb.writer_tids.insert(ev.tid);
    }
  }

  // Attribute untagged vfs spans to the enclosing background span on the
  // same thread (midpoint containment: writer threads run one item at a
  // time, so background spans on one tid do not nest across bases).
  for (const TraceEvent& ev : trace.events) {
    if (ev.dur < 0.0 || !is_vfs_write(ev)) continue;
    const double mid = ev.ts + ev.dur / 2;
    for (auto& [base, pb] : bases) {
      bool hit = false;
      for (std::size_t i = 0; i < pb.background.size(); ++i) {
        if (pb.background_tids[i] == ev.tid && mid >= pb.background[i].lo &&
            mid <= pb.background[i].hi) {
          pb.raw_write_s += ev.dur;
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
  }

  std::vector<SnapshotTimeline> out;
  out.reserve(bases.size());
  for (auto& [base, pb] : bases) {
    SnapshotTimeline tl;
    tl.base = base;
    tl.raw_write_s = pb.raw_write_s;
    tl.client_threads = static_cast<int>(pb.perceived_by_tid.size());
    tl.writer_threads = static_cast<int>(pb.writer_tids.size());

    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();

    // Perceived: merge per thread, take the slowest thread; collect the
    // cross-thread union for the overlap subtraction below.
    std::vector<Interval> perceived_union;
    for (auto& [tid, ivs] : pb.perceived_by_tid) {
      merge(ivs);
      tl.perceived_s = std::max(tl.perceived_s, total(ivs));
      for (const Interval& iv : ivs) {
        perceived_union.push_back(iv);
        lo = std::min(lo, iv.lo);
        hi = std::max(hi, iv.hi);
      }
    }
    merge(perceived_union);

    for (const Interval& iv : pb.background) {
      tl.background_s += iv.hi - iv.lo;
      tl.hidden_s += uncovered(iv, perceived_union);
      lo = std::min(lo, iv.lo);
      hi = std::max(hi, iv.hi);
    }

    if (lo <= hi) {
      tl.start = lo;
      tl.end = hi;
      tl.wall_s = hi - lo;
    }
    out.push_back(std::move(tl));
  }

  std::sort(out.begin(), out.end(),
            [](const SnapshotTimeline& a, const SnapshotTimeline& b) {
              return a.start < b.start;
            });
  return out;
}

}  // namespace roc::telemetry
