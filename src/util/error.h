#pragma once
/// \file error.h
/// \brief Exception hierarchy used across the rocpio libraries.
///
/// All library errors derive from roc::Error.  Each subsystem throws its own
/// subclass so callers can discriminate failure domains without string
/// matching.  Errors carry a human-readable message assembled at throw time.

#include <atomic>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/hot.h"

namespace roc {

/// Base class for every error thrown by rocpio libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated an interface precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what)
      : Error("invalid argument: " + what) {}
};

/// File-system level failure (open, read, write, unlink, ...).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error("I/O error: " + what) {}
};

/// The bytes of an SHDF file do not form a valid file (bad magic, truncated
/// section, checksum mismatch, unsupported version, ...).
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what)
      : Error("format error: " + what) {}
};

/// A FormatError raised because the bytes ran out before the record being
/// parsed did.  A reader that parses from a window of a file widens the
/// window on this error and on no other.
class TruncatedError : public FormatError {
 public:
  using FormatError::FormatError;
};

/// Message-passing runtime failure (invalid rank, communicator misuse, ...).
class CommError : public Error {
 public:
  explicit CommError(const std::string& what)
      : Error("comm error: " + what) {}
};

/// Roccom registry failure (unknown window/attribute/function, duplicate
/// registration, schema mismatch, ...).
class RegistryError : public Error {
 public:
  explicit RegistryError(const std::string& what)
      : Error("registry error: " + what) {}
};

namespace detail {

/// Observer invoked with the failure message just before require() throws
/// (same lock-free fn-pointer pattern as the log mirror).  The flight
/// recorder installs one so a failed precondition leaves a black-box dump
/// even when the exception is swallowed upstream.
using RequireObserver = void (*)(const char* message);

inline std::atomic<RequireObserver>& require_observer_slot() {
  static std::atomic<RequireObserver> observer{nullptr};
  return observer;
}

inline void set_require_observer(RequireObserver observer) {
  require_observer_slot().store(observer, std::memory_order_release);
}

inline void notify_require_failure(const char* message) {
  if (RequireObserver obs =
          require_observer_slot().load(std::memory_order_acquire)) {
    obs(message);
  }
}

inline void append_part(std::string& s, std::string_view part) { s += part; }
inline void append_part(std::string& s, const char* part) { s += part; }
inline void append_part(std::string& s, const std::string& part) {
  s += part;
}
inline void append_part(std::string& s, char part) { s += part; }
template <typename T,
          typename = std::enable_if_t<std::is_arithmetic_v<T>>>
inline void append_part(std::string& s, T part) {
  s += std::to_string(part);
}

/// Builds the failure message.  Deliberately out of the inline hot path:
/// only instantiated and called once a precondition has actually failed.
/// ROC_COLD: a tripped precondition ends the hot path by definition.
template <typename... Parts>
ROC_COLD [[noreturn]] inline void require_fail(Parts&&... parts) {
  std::string msg;
  (append_part(msg, std::forward<Parts>(parts)), ...);
  notify_require_failure(msg.c_str());
  throw InvalidArgument(msg);
}

/// Lazily-invoked message builders: require(cond, [&]{ return ...; }).
template <typename F,
          typename = std::enable_if_t<std::is_invocable_v<F&>>>
ROC_COLD [[noreturn]] inline void require_fail(F&& message_fn) {
  std::string msg(message_fn());
  notify_require_failure(msg.c_str());
  throw InvalidArgument(std::move(msg));
}

}  // namespace detail

/// Throws InvalidArgument if `cond` is false.
///
/// The message is assembled ONLY on failure, so hot paths (wire decode,
/// SHDF codec, per-block loops) pay nothing when the condition holds.
/// Three spellings:
///
///   require(ok, "literal message");                       // no allocation
///   require(ok, "pane ", id, " missing in ", file);       // lazy concat
///   require(ok, [&] { return expensive_description(); }); // lazy callable
template <typename... Parts>
inline void require(bool cond, Parts&&... parts) {
  if (cond) [[likely]]
    return;
  detail::require_fail(std::forward<Parts>(parts)...);
}

}  // namespace roc
