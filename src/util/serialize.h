#pragma once
/// \file serialize.h
/// \brief Portable binary (de)serialization.
///
/// All multi-byte values are encoded little-endian regardless of host
/// byte order, which makes every byte stream produced here binary-portable
/// (the property the paper requires of its HDF output files).  Floating
/// point values are encoded via their IEEE-754 bit patterns.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace roc {

namespace detail {

/// True on little-endian hosts; encoding is a memcpy there.
constexpr bool kHostLittleEndian =
    (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__);

template <typename T>
constexpr bool is_scalar_v =
    std::is_integral_v<T> || std::is_floating_point_v<T>;

}  // namespace detail

/// Appends values to a growable byte buffer in little-endian order.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `storage` as the backing buffer: contents are discarded,
  /// capacity is kept.  Pairs with take() so hot marshalling paths recycle
  /// one allocation across blocks (e.g. a BufferPool-acquired vector).
  explicit ByteWriter(std::vector<unsigned char> storage)
      : buf_(std::move(storage)) {
    buf_.clear();
  }

  /// Reserves capacity up-front to avoid reallocation in hot paths.
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: explicit capacity priming API; callers pay it once outside steady state.
  void reserve(size_t bytes) { buf_.reserve(bytes); }

  /// Discards contents, keeps capacity — scratch-writer reuse.
  void clear() { buf_.clear(); }

  template <typename T>
  void put(T v) {
    static_assert(detail::is_scalar_v<T>, "put() takes scalar types");
    // Resize-then-memcpy: unlike insert() of a stack array, this compiles
    // to a bounds check plus an unconditional fixed-size store.
    const size_t at = buf_.size();
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: size bump within retained capacity; reallocates only past the high-water mark (pool-seeded in hot paths).
    buf_.resize(at + sizeof(T));
    if constexpr (!detail::kHostLittleEndian) {
      unsigned char raw[sizeof(T)];
      std::memcpy(raw, &v, sizeof(T));
      for (size_t i = 0; i < sizeof(T) / 2; ++i)
        std::swap(raw[i], raw[sizeof(T) - 1 - i]);
      std::memcpy(buf_.data() + at, raw, sizeof(T));
    } else {
      std::memcpy(buf_.data() + at, &v, sizeof(T));
    }
  }

  /// Appends `n` scalars little-endian with no length prefix — the bulk
  /// fast path (single memcpy on little-endian hosts instead of a per-
  /// element loop).
  template <typename T>
  void put_raw_array(const T* data, size_t n) {
    static_assert(detail::is_scalar_v<T>);
    if constexpr (detail::kHostLittleEndian) {
      put_bytes(data, n * sizeof(T));
    } else {
      for (size_t i = 0; i < n; ++i) put(data[i]);
    }
  }

  /// Length-prefixed (u32) string.
  void put_string(std::string_view s) {
    put<uint32_t>(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Raw bytes, no length prefix.
  void put_bytes(std::span<const std::byte> bytes) {
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    buf_.insert(buf_.end(), p, p + bytes.size());
  }

  void put_bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Length-prefixed (u64) scalar vector, each element little-endian.
  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(detail::is_scalar_v<T>);
    put<uint64_t>(v.size());
    put_raw_array(v.data(), v.size());
  }

  [[nodiscard]] size_t size() const { return buf_.size(); }
  [[nodiscard]] const unsigned char* data() const { return buf_.data(); }

  /// Moves the accumulated bytes out; the writer is empty afterwards.
  std::vector<unsigned char> take() { return std::move(buf_); }

 private:
  std::vector<unsigned char> buf_;
};

/// Reads little-endian values from a byte span.  Throws FormatError on
/// under-run so truncated files are detected rather than mis-parsed.
class ByteReader {
 public:
  explicit ByteReader(std::span<const unsigned char> data) : data_(data) {}
  ByteReader(const void* data, size_t n)
      : data_(static_cast<const unsigned char*>(data), n) {}

  template <typename T>
  T get() {
    static_assert(detail::is_scalar_v<T>, "get() returns scalar types");
    check(sizeof(T));
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, data_.data() + pos_, sizeof(T));
    if constexpr (!detail::kHostLittleEndian) {
      for (size_t i = 0; i < sizeof(T) / 2; ++i)
        std::swap(raw[i], raw[sizeof(T) - 1 - i]);
    }
    T v;
    std::memcpy(&v, raw, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string get_string() {
    const auto n = get<uint32_t>();
    check(n);
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: bounded header-parse string
    // (length-prefixed names, SSO in the common case).
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(detail::is_scalar_v<T>);
    const auto n = get<uint64_t>();
    check_count(n, sizeof(T));
    std::vector<T> v(static_cast<size_t>(n));
    if constexpr (detail::kHostLittleEndian) {
      // v.data() is null for an empty vector; memcpy's arguments are
      // declared nonnull even for zero sizes.
      if (!v.empty())
        std::memcpy(v.data(), data_.data() + pos_, v.size() * sizeof(T));
      pos_ += v.size() * sizeof(T);
    } else {
      for (auto& x : v) x = get<T>();
    }
    return v;
  }

  /// Copies `n` raw bytes into `out`.
  void get_bytes(void* out, size_t n) {
    check(n);
    if (n > 0) std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  void skip(size_t n) {
    check(n);
    pos_ += n;
  }

  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] size_t position() const { return pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  void check(size_t need) const {
    if (data_.size() - pos_ < need)
      // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: truncated-stream error path only.
      throw TruncatedError("byte stream truncated: need " +
                           // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: truncated-stream error path only.
                           std::to_string(need) + " bytes, have " +
                           std::to_string(data_.size() - pos_));
  }
  /// Guards element-count * element-size overflow before allocation.
  void check_count(uint64_t count, size_t elem) const {
    if (count > (data_.size() - pos_) / elem)
      throw TruncatedError("byte stream truncated: vector of " +
                           std::to_string(count) + " elements does not fit");
  }

  std::span<const unsigned char> data_;
  size_t pos_ = 0;
};

}  // namespace roc
