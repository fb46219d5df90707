#pragma once
/// \file watchdog.h
/// \brief Stall watchdog: named heartbeats with deadlines; a missed beat
/// fires a flight-recorder dump instead of a silent hang.
///
/// Long-running loops register liveness by calling
///
///   watchdog::beat("server.background_writer", 30.0);
///
/// every iteration.  poll() compares each live heartbeat's age against its
/// deadline on the telemetry clock (real or virtual); the first poll that
/// finds a heartbeat overdue
///   * records a watchdog event in the trace ring (trace.h) and dumps
///     the flight recorder,
///   * logs at error level,
/// and then stays quiet until the heartbeat recovers (one alarm per
/// stall).
///
/// poll() is passive so the mechanism works identically under the virtual
/// clock (tests/sims call it at points of their choosing); start() spawns
/// a real-time background poller for production use on the wall clock.
///
/// Heartbeat names must be string literals (lowercase dotted identifiers,
/// same grammar the metric-name lint enforces); slots are never reclaimed,
/// retire() merely marks a heartbeat as intentionally stopped.

namespace roc::telemetry::watchdog {

#if defined(ROCPIO_TELEMETRY_DISABLED)

inline void beat(const char*, double) {}
inline void retire(const char*) {}
inline int poll() { return 0; }
inline void start(double) {}
inline void stop() {}
inline void reset_for_testing() {}

#else

/// Registers (first call) and refreshes the named heartbeat.  `deadline_s`
/// is the maximum tolerated gap between beats on the telemetry clock.
void beat(const char* name, double deadline_s);

/// Marks the heartbeat as intentionally stopped (thread exiting cleanly);
/// retired heartbeats are not polled until the next beat().
void retire(const char* name);

/// Checks every live heartbeat; fires the alarm path once per stall.
/// Returns the number of heartbeats currently overdue.
int poll();

/// Starts a background thread that poll()s every `interval_s` seconds of
/// real time.  Idempotent; stop() joins it.  Real-clock deployments only —
/// virtual-clock runs drive poll() themselves.
void start(double interval_s);
void stop();

/// Drops all heartbeat registrations.  Test isolation only.
void reset_for_testing();

#endif  // ROCPIO_TELEMETRY_DISABLED

}  // namespace roc::telemetry::watchdog
