#pragma once
/// \file crc64.h
/// \brief CRC-64 (ECMA-182 polynomial) used for SHDF integrity checks and
/// for state fingerprints in restart-equivalence tests.

#include <cstddef>
#include <cstdint>

namespace roc {

/// Streaming CRC-64 accumulator (CRC-64/XZ: reflected ECMA-182, initial
/// value and final XOR all ones).  `update` dispatches once per process:
/// on x86-64 CPUs with PCLMULQDQ, inputs of 128 bytes and more are folded
/// four 16-byte lanes at a time with carry-less multiplies; everything else
/// runs `crc64_update_sliced`.  `crc64_update_bitwise` is the reference
/// both are tested against.
class Crc64 {
 public:
  /// Feeds `n` bytes into the running checksum.
  void update(const void* data, size_t n);

  template <typename T>
  void update_value(const T& v) {
    update(&v, sizeof(T));
  }

  /// Final checksum over everything fed so far.
  [[nodiscard]] uint64_t value() const { return ~state_; }

 private:
  uint64_t state_ = ~0ULL;
};

/// One-shot convenience wrapper.
uint64_t crc64(const void* data, size_t n);

/// Portable slicing-by-8 CRC step (eight table lookups per 8-byte word):
/// the fallback kernel, exposed so it stays tested on CPUs that take the
/// folding path.  `state` is the raw accumulator, as for the bitwise step.
uint64_t crc64_update_sliced(uint64_t state, const void* data, size_t n);

/// Reference bit-at-a-time CRC step (no tables).  Slow; exists so tests can
/// verify the fast kernels against first principles.  `state` is
/// the raw (pre-inversion) accumulator: seed with ~0ULL and invert the
/// result for a full checksum.
uint64_t crc64_update_bitwise(uint64_t state, const void* data, size_t n);

}  // namespace roc
