#pragma once
/// \file alloc_hook.h
/// \brief Counting operator new/delete interposer (ROCPIO_CHECK only).
///
/// Linking this TU replaces the global allocation functions with counting
/// wrappers and installs the roc::hot::AllocGate, which activates the
/// ROC_ALLOC_EXEMPT brackets compiled into product code (src/util/hot.h).
/// Semantics:
///
///   * every operator-new allocation bumps per-thread and process
///     totals (raw interposer truth -- tests assert exact counts);
///   * allocations outside an ROC_ALLOC_EXEMPT bracket are also CHARGED
///     to the calling thread.  alloc_test diffs the charged count around
///     the steady state of each hot pipeline and requires zero.
///
/// The exempt bracket marks the sanctioned channels (BufferPool recycling,
/// retained shdf metadata, mailbox ring growth, the simulated device
/// store); rocanalyze R8 reads the same markers as its exemptions, so one
/// annotation serves both checks.

#include <cstdint>

namespace roc::check {

/// Raw per-thread interposer counters (exempt allocations included).
uint64_t thread_allocs();
uint64_t thread_frees();
uint64_t thread_alloc_bytes();
/// Unsanctioned allocations on this thread: everything outside an
/// ROC_ALLOC_EXEMPT bracket.
uint64_t thread_charged_allocs();
/// Process-wide allocation total.
uint64_t total_allocs();

}  // namespace roc::check
