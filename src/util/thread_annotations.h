#pragma once
/// \file thread_annotations.h
/// \brief Clang Thread Safety Analysis attribute macros.
///
/// These macros let the code declare its locking discipline — which mutex
/// guards which field, which functions must (or must not) be called with a
/// lock held — so that `clang++ -Wthread-safety` statically verifies every
/// access.  Under compilers without the attributes (GCC, MSVC) the macros
/// expand to nothing; the declarations still serve as machine-checkable
/// documentation whenever a Clang build runs (the `thread-safety` CI job).
///
/// Conventions (see DESIGN.md "Correctness tooling"):
///  * every shared field is declared `ROC_GUARDED_BY(mutex)`;
///  * lock-taking helpers are `ROC_ACQUIRE` / `ROC_RELEASE`;
///  * functions called with the lock held are `ROC_REQUIRES(mutex)`;
///  * functions that take the lock themselves are `ROC_EXCLUDES(mutex)`;
///  * monitor waits are `ROC_REQUIRES(...)` (held before and after).
///
/// The macro set mirrors the reference implementation in the Clang manual
/// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).

#if defined(__clang__) && !defined(SWIG)
#define ROC_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ROC_THREAD_ANNOTATION_(x)  // no-op
#endif

/// Declares a class to be a capability (lockable) type.
#define ROC_CAPABILITY(x) ROC_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define ROC_SCOPED_CAPABILITY ROC_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only with the given capability held.
#define ROC_GUARDED_BY(x) ROC_THREAD_ANNOTATION_(guarded_by(x))

/// Function requires the capability to be held on entry (and exit).
#define ROC_REQUIRES(...) \
  ROC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define ROC_ACQUIRE(...) \
  ROC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry).
#define ROC_RELEASE(...) \
  ROC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (it takes it).
#define ROC_EXCLUDES(...) ROC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Escape hatch: disables analysis inside one function.  Reserved for the
/// lock *implementations* themselves (roc::Mutex, the Gate backends), whose
/// bodies manipulate the underlying primitive that the interface annotation
/// already describes to callers.
#define ROC_NO_THREAD_SAFETY_ANALYSIS \
  ROC_THREAD_ANNOTATION_(no_thread_safety_analysis)
