#pragma once
/// \file timeline.h
/// \brief Per-snapshot I/O timeline: the paper's Fig. 3 quantities derived
/// from a trace.
///
/// The write pipeline tags two span names with the snapshot base name in
/// their `detail` payload:
///
///  - "snapshot.perceived"  — time the *application* thread spends inside
///    the output call (marshal + ship + any block-on-previous-snapshot);
///    what the paper plots as the visible cost of a snapshot.
///  - "snapshot.background" — time an I/O-server / writer thread spends
///    writing that snapshot's data behind the application's back.
///
/// Raw "vfs" category spans (write/open) carry no snapshot
/// tag; they are attributed to the background span that contains them on
/// the same thread.
///
/// From those, snapshot_timelines() computes per snapshot base:
///
///   wall_s       total extent of the snapshot's activity
///   perceived_s  max over application threads of their merged perceived
///                intervals (ranks run concurrently, so the snapshot's
///                visible cost is the slowest rank, not the sum)
///   background_s sum of background writer time
///   hidden_s     background time that does NOT overlap any perceived
///                interval — the cost the pipeline actually hid
///   raw_write_s  vfs time inside the background spans (the disk's share)
///
/// For a fully-overlapped writer, perceived_s + hidden_s ~= wall_s; the
/// telemetry test asserts that identity on the sim substrate.

#include <string>
#include <vector>

#include "telemetry/trace.h"

namespace roc::telemetry {

struct SnapshotTimeline {
  std::string base;     ///< snapshot base name (the span detail payload)
  double start = 0.0;   ///< earliest activity, seconds on the trace clock
  double end = 0.0;     ///< latest activity
  double wall_s = 0.0;
  double perceived_s = 0.0;
  double background_s = 0.0;
  double hidden_s = 0.0;
  double raw_write_s = 0.0;
  int client_threads = 0;  ///< distinct tids with perceived spans
  int writer_threads = 0;  ///< distinct tids with background spans
};

/// Groups the trace's snapshot spans by base name and computes one
/// timeline per snapshot, ordered by start time.  Snapshots with no
/// perceived *and* no background span do not appear.
[[nodiscard]] std::vector<SnapshotTimeline> snapshot_timelines(
    const Trace& trace);

}  // namespace roc::telemetry
