#pragma once
/// \file scenarios.h
/// \brief Checker scenarios: the repo's sim-mode workloads packaged for
/// seed sweeps.
///
/// Each scenario builds a fresh Simulation, wires the explorer in as its
/// tie-break scheduler, installs the session's hooks, and runs one of the
/// existing workloads end to end:
///
///   * "trochdf"          — 2 ranks, threaded Rochdf (background I/O
///                          thread), back-to-back snapshots + sync: the
///                          snapshot-handoff protocol.
///   * "active_buffering" — Rocpanda with a small server buffer, forcing
///                          the overflow/spill path under load.
///   * "fig3a"            — 4 clients + 2 servers, write/compute/write,
///                          fetch-back verification, shutdown.
///   * "racy"             — deliberately racy regression fixture: a flag
///                          is written before a message is provably
///                          received.  Roughly half of all schedules
///                          order the read ahead of the delivery; the
///                          checker must flag those.
///
/// Scenarios validate their own results with require() (not timing
/// asserts — injected preemptions legitimately perturb virtual time).

#include <string>
#include <vector>

#include "check/checker.h"
#include "check/explorer.h"

namespace roc::check {

/// "" on clean completion, else the scenario's failure message (an
/// exception escaping the simulation — distinct from checker findings,
/// which land in the Session).
struct ScenarioResult {
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

[[nodiscard]] std::vector<std::string> scenario_names();

/// Runs `name` under `session` + `explorer`.  Throws on unknown name.
ScenarioResult run_scenario(const std::string& name, Session& session,
                            Explorer& explorer);

}  // namespace roc::check
