#pragma once
/// \file hot.h
/// \brief Hot-path annotations and the allocation-exemption bracket.
///
/// ROC_HOT marks a hot-path ROOT for tools/rocanalyze (rules R8-R10): the
/// static analyzer computes the closure of everything reachable from the
/// annotation and rejects heap allocation, owned-bytes materialisation
/// and cold-root calls (stdio, formatting, trace sinks) inside it.
/// ROC_COLD marks an explicitly sanctioned cold branch the closure must
/// not descend into (slow-path fallbacks, error reporting).  Both expand
/// to nothing; they are annotations in the thread_annotations.h sense.
///
/// ROC_ALLOC_EXEMPT("why: ...") brackets a sanctioned allocation channel
/// (BufferPool recycling, retained metadata, amortised ring growth) until
/// the end of the enclosing block.  It serves both allocation checks:
/// rocanalyze R8 does not charge allocation sites after it in the same
/// block, and the runtime interposer (src/check/alloc_hook.cpp) counts
/// the block's allocations in the raw thread totals but does not charge
/// them (alloc_test requires zero charged allocations in steady state).  The string says why the channel is
/// sanctioned; it must start with "why:".
///
/// Like check_hooks.h, product code never links the checker: the bracket
/// routes through a function-pointer gate that the interposer installs at
/// static-init time when roc_check is in the image.  Gate absent (or
/// -DROCPIO_CHECK=OFF): one relaxed atomic load, no code.

#define ROC_HOT
#define ROC_COLD

#if defined(ROCPIO_CHECK)

#include <atomic>

namespace roc::hot {

/// Interposer entry points (see alloc_hook.cpp).
struct AllocGate {
  void (*exempt_enter)();
  void (*exempt_exit)();
};

namespace detail {
inline std::atomic<const AllocGate*> g_gate{nullptr};
}  // namespace detail

/// Installs `g`.  Called by the interposer's static initializer; product
/// code never calls this.
inline void set_gate(const AllocGate* g) {
  detail::g_gate.store(g, std::memory_order_release);
}

class ScopedAllocExempt {
 public:
  ScopedAllocExempt()
      : gate_(detail::g_gate.load(std::memory_order_acquire)) {
    if (gate_ != nullptr) gate_->exempt_enter();
  }
  ~ScopedAllocExempt() {
    if (gate_ != nullptr) gate_->exempt_exit();
  }
  ScopedAllocExempt(const ScopedAllocExempt&) = delete;
  ScopedAllocExempt& operator=(const ScopedAllocExempt&) = delete;

 private:
  const AllocGate* gate_;
};

}  // namespace roc::hot

#define ROC_HOT_CAT2_(a, b) a##b
#define ROC_HOT_CAT_(a, b) ROC_HOT_CAT2_(a, b)
#define ROC_ALLOC_EXEMPT(why) \
  ::roc::hot::ScopedAllocExempt ROC_HOT_CAT_(roc_allocex_, __LINE__) {}

#else  // !ROCPIO_CHECK

#define ROC_ALLOC_EXEMPT(why) \
  do {                        \
  } while (0)

#endif  // ROCPIO_CHECK
