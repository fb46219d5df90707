/// \file alloc_hook.cpp
/// \brief Global operator new/delete interposer + AllocGate implementation.
///
/// Everything here must be async-allocation-safe: the counting path runs
/// inside operator new, so it uses only POD thread_locals, relaxed
/// atomics and raw malloc/free (which are NOT interposed -- the wrappers
/// below sit on top of them).

#include "check/alloc_hook.h"

#if defined(ROCPIO_CHECK)

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "util/hot.h"

namespace roc::check {
namespace {

thread_local uint64_t t_allocs = 0;
thread_local uint64_t t_frees = 0;
thread_local uint64_t t_bytes = 0;
thread_local uint64_t t_charged = 0;  // unsanctioned (non-exempt) allocs
thread_local int t_exempt = 0;

std::atomic<uint64_t> g_allocs{0};

/// The single counting choke point for every replaced allocation function.
void on_alloc(std::size_t n) {
  ++t_allocs;
  t_bytes += n;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (t_exempt == 0) ++t_charged;
}

void on_free() {
  ++t_frees;
}

void* do_alloc(std::size_t n, std::size_t align) {
  if (n == 0) n = 1;
  void* p;
  if (align > alignof(std::max_align_t)) {
    std::size_t rounded = (n + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded);
  } else {
    p = std::malloc(n);
  }
  if (p != nullptr) on_alloc(n);
  return p;
}

void* do_alloc_throwing(std::size_t n, std::size_t align) {
  for (;;) {
    void* p = do_alloc(n, align);
    if (p != nullptr) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

void do_free(void* p) {
  if (p == nullptr) return;
  on_free();
  std::free(p);
}

void exempt_enter() { ++t_exempt; }
void exempt_exit() {
  if (t_exempt > 0) --t_exempt;
}

/// Installs the gate before main().
const roc::hot::AllocGate g_gate{&exempt_enter, &exempt_exit};
[[maybe_unused]] const bool g_installed = (roc::hot::set_gate(&g_gate), true);

}  // namespace

uint64_t thread_allocs() { return t_allocs; }
uint64_t thread_frees() { return t_frees; }
uint64_t thread_alloc_bytes() { return t_bytes; }
uint64_t thread_charged_allocs() { return t_charged; }
uint64_t total_allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace roc::check

// ---------------------------------------------------------------------------
// Global allocation-function replacements.  The full family, so nothing
// slips past the counters regardless of alignment or nothrow-ness.
// ---------------------------------------------------------------------------

void* operator new(std::size_t n) {
  return roc::check::do_alloc_throwing(n, 0);
}
void* operator new[](std::size_t n) {
  return roc::check::do_alloc_throwing(n, 0);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return roc::check::do_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return roc::check::do_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return roc::check::do_alloc_throwing(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return roc::check::do_alloc_throwing(n, static_cast<std::size_t>(al));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return roc::check::do_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return roc::check::do_alloc(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { roc::check::do_free(p); }
void operator delete[](void* p) noexcept { roc::check::do_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  roc::check::do_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  roc::check::do_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  roc::check::do_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  roc::check::do_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  roc::check::do_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  roc::check::do_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  roc::check::do_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  roc::check::do_free(p);
}

#endif  // ROCPIO_CHECK
