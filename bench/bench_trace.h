#pragma once
/// \file bench_trace.h
/// \brief Timeline tracing for the bench harnesses.
///
/// Every harness that includes this accepts `--trace <path>`.  When given,
/// trace recording (src/telemetry/trace.h) is enabled for the whole run and
/// the destructor writes one Chrome-tracing JSON file: each collect() call
/// becomes one labelled process (pid) in the viewer, so configurations of
/// an ablation land side by side on the same timeline.
///
/// collect() also derives the per-snapshot I/O timeline (paper Fig. 3
/// quantities -- perceived vs hidden vs raw write cost) and, when a
/// JsonEmitter is supplied, appends one "snapshot_timeline" record per
/// snapshot and metric to the harness's `--json` output:
///
///   {"name": "snapshot_timeline",
///    "params": {"config": <label>, "snapshot": <base>},
///    "metric": "perceived_time" | "background_time" | "hidden_time" |
///              "raw_write_time" | "wall_time",
///    "value": <seconds>, "units": "s"}
///
/// Without `--trace` every call is a no-op, so harnesses pay nothing.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/flight.h"
#include "telemetry/timeline.h"
#include "telemetry/trace.h"

#include "bench_json.h"

namespace bench {

/// Takes `--trace <path>` out of argc/argv (like JsonEmitter's `--json`).
/// Construct before the first measured run; destroy (scope exit) to write
/// the file.
class TraceSession {
 public:
  TraceSession(int* argc, char** argv)
      : path_(take_flag_value(argc, argv, "--trace")) {
    if (enabled()) {
      // Recording also arms the flight recorder: crashes, stalls and
      // require failures dump the last events of every thread next to the
      // trace.
      roc::telemetry::set_trace_enabled(true);
      roc::telemetry::flight::set_dump_path("rocpio-flight.json");
      roc::telemetry::flight::install_signal_handlers();
      // Drop anything recorded before the session (e.g. warmup runs).
      (void)roc::telemetry::collect_trace();
    }
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  ~TraceSession() {
    if (!enabled()) return;
    roc::telemetry::set_trace_enabled(false);
    roc::telemetry::TraceWriter w(path_);
    for (auto& [label, trace] : batches_) w.add(label, std::move(trace));
    if (w.write())
      std::fprintf(stderr, "trace: wrote %s (load in ui.perfetto.dev or "
                   "chrome://tracing)\n", path_.c_str());
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Drains everything recorded since the previous collect() into a batch
  /// labelled `label` (one pid in the trace file) and returns the derived
  /// per-snapshot timelines.  When `json` is given, also records them
  /// (schema above).  Call once per measured configuration, right after
  /// its run completes.
  std::vector<roc::telemetry::SnapshotTimeline> collect(
      const std::string& label, JsonEmitter* json = nullptr) {
    if (!enabled()) return {};
    roc::telemetry::Trace trace = roc::telemetry::collect_trace();
    if (trace.dropped > 0)
      std::fprintf(stderr, "trace: %llu event(s) dropped in '%s' (ring "
                   "overflow)\n",
                   static_cast<unsigned long long>(trace.dropped),
                   label.c_str());
    auto timelines = roc::telemetry::snapshot_timelines(trace);
    if (json != nullptr) {
      for (const auto& t : timelines) {
        const std::vector<Param> params = {param("config", label),
                                           param("snapshot", t.base)};
        json->record("snapshot_timeline", params, "perceived_time",
                     t.perceived_s, "s");
        json->record("snapshot_timeline", params, "background_time",
                     t.background_s, "s");
        json->record("snapshot_timeline", params, "hidden_time",
                     t.hidden_s, "s");
        json->record("snapshot_timeline", params, "raw_write_time",
                     t.raw_write_s, "s");
        json->record("snapshot_timeline", params, "wall_time",
                     t.wall_s, "s");
      }
    }
    batches_.emplace_back(label, std::move(trace));
    return timelines;
  }

  /// Prints one line per snapshot: the Fig.-3 split at a glance.
  static void print(const std::vector<roc::telemetry::SnapshotTimeline>& ts) {
    for (const auto& t : ts)
      std::printf("    %-22s perceived %8.2fs  hidden %8.2fs  "
                  "background %8.2fs  raw write %8.2fs\n",
                  t.base.c_str(), t.perceived_s, t.hidden_s, t.background_s,
                  t.raw_write_s);
  }

 private:
  std::string path_;
  std::vector<std::pair<std::string, roc::telemetry::Trace>> batches_;
};

}  // namespace bench
