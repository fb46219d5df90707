#pragma once
/// \file flight.h
/// \brief Flight recorder: dumps the newest events of every thread's trace
/// ring (trace.h) to a self-contained JSON file after the fact.
///
/// The Chrome export answers "what happened during this traced run"; the
/// dump answers "what was every thread doing just before the crash or
/// failure".  Both read the same rings, armed by set_trace_enabled().  Per
/// thread the dump shows its name, a count of its events left out, and
/// its last kDumpEventsPerThread events: span begins (so open spans
/// show), span ends, instants, kError log lines and require failures.
/// It consumes nothing, and shows an exited thread's ring until a new
/// thread reuses it.  It is async-signal-safe (no locks, no allocation,
/// raw write(2)) and skips an event the writer overwrites while it reads,
/// instead of printing it torn.
///
/// Dump triggers: install_signal_handlers() (SIGSEGV/SIGABRT); a
/// roc::require failure while recording, when set_dump_path() configured
/// a path; dump_now().

#include <cstddef>

namespace roc::telemetry::flight {

/// Events per thread a dump prints, newest last.
inline constexpr std::size_t kDumpEventsPerThread = 256;

/// Configures where automatic dumps (require failure, signals) land.
/// Empty or null disables require-failure auto-dumps; signal dumps fall
/// back to "rocpio-flight.json" in the working directory.  The path is
/// copied into a fixed buffer (signal safety); overlong paths are
/// truncated.
void set_dump_path(const char* path);

/// Serializes the last events of every thread as one JSON object to `fd`.
/// Async-signal-safe: raw write(2), no locks, no allocation.
void dump_to_fd(int fd, const char* reason);

/// Dumps to `path`, or to the configured dump path (falling back to
/// "rocpio-flight.json") when null.  Returns false if the file could not
/// be opened.  Safe to call at any time, from any thread.
bool dump_now(const char* reason, const char* path = nullptr);

/// Installs SIGSEGV/SIGABRT handlers that dump the recorder and re-raise
/// the default disposition.  Idempotent.  Intended for the bench/tool
/// entry points; sanitizer runs keep their own handlers, so tests do not
/// install these.
void install_signal_handlers();

}  // namespace roc::telemetry::flight
