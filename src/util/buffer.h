#pragma once
/// \file buffer.h
/// \brief Zero-copy building blocks: immutable ref-counted byte buffers,
/// non-owning views, gather lists, and a recycling pool.
///
/// These types carry the hot write path's bytes without copying them
/// (see DESIGN.md "Data path and copy discipline"):
///
///  * `SharedBuffer` — immutable, ref-counted bytes.  Passing one between
///    threads shares a reference instead of copying; immutability is what
///    makes that safe without locks (readers can never observe a write).
///  * `ConstBuffer`  — a borrowed `{pointer, size}` view with no ownership.
///  * `BufferChain`  — an ordered gather list whose segments are either
///    owned (`SharedBuffer`) or borrowed (`ConstBuffer` aliasing caller
///    memory that must stay valid until the chain is consumed).
///  * `BufferPool`   — thread-safe, size-bucketed recycler of the vectors
///    backing `SharedBuffer`s, so repeated snapshots stop paying
///    allocation churn.
///
/// A `SharedBuffer` sealed by a pool returns its storage to that pool when
/// the last reference drops; if the pool died first the storage is simply
/// freed.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/error.h"
#include "util/hot.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace roc {

class BufferPool;

/// Immutable ref-counted byte buffer.  Copying a SharedBuffer copies a
/// reference (shared_ptr semantics), never the bytes.  A default-constructed
/// instance is an empty buffer (`data() == nullptr`, `size() == 0`).
class SharedBuffer {
 public:
  SharedBuffer() = default;

  /// New buffer holding a copy of `[data, data+n)`.
  static SharedBuffer copy_of(const void* data, size_t n);

  /// New buffer adopting `bytes` (no copy; the vector is moved in).
  static SharedBuffer adopt(std::vector<unsigned char> bytes);

  [[nodiscard]] const unsigned char* data() const { return data_; }
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const unsigned char> span() const {
    return {data_, size_};
  }

  /// The bytes `[off, off + n)` as a buffer that shares this one's owner:
  /// no copy, and the storage stays alive while the slice does.  An empty
  /// slice is the empty buffer.
  [[nodiscard]] SharedBuffer slice(size_t off, size_t n) const {
    require(off <= size_ && n <= size_ - off, "slice [", off, ", +", n,
            ") past the end of a ", size_, "-byte buffer");
    if (n == 0) return {};
    return SharedBuffer(owner_, data_ + off, n);
  }

  /// Compatibility accessor: a fresh mutable copy of the bytes, for call
  /// sites that still traffic in `std::vector<unsigned char>`.
  [[nodiscard]] std::vector<unsigned char> to_vector() const {
    return {data_, data_ + size_};
  }

  /// Number of SharedBuffer handles sharing this storage (0 for the empty
  /// buffer).  Approximate under concurrency; exact in single-threaded
  /// tests, which use it to prove sends enqueue references, not copies.
  [[nodiscard]] long use_count() const { return owner_.use_count(); }

 private:
  friend class BufferPool;
  SharedBuffer(std::shared_ptr<const void> owner, const unsigned char* data,
               size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}

  std::shared_ptr<const void> owner_;  ///< Keeps the storage alive.
  const unsigned char* data_ = nullptr;
  size_t size_ = 0;
};

/// Borrowed, non-owning view of contiguous bytes.  The pointee must outlive
/// every use of the view — the compiler cannot check this; the ownership
/// table in DESIGN.md documents where borrowing is legal.
struct ConstBuffer {
  const unsigned char* data = nullptr;
  size_t size = 0;

  ConstBuffer() = default;
  ConstBuffer(const void* d, size_t n)
      : data(static_cast<const unsigned char*>(d)), size(n) {}
  explicit ConstBuffer(const std::vector<unsigned char>& v)
      : data(v.data()), size(v.size()) {}
  explicit ConstBuffer(const SharedBuffer& b)
      : data(b.data()), size(b.size()) {}

  [[nodiscard]] bool empty() const { return size == 0; }
};

/// Ordered gather list of owned and borrowed segments.  Borrowed segments
/// alias caller memory and are only valid until the chain is consumed
/// (gathered, written, or sent); owned segments pin their bytes for the
/// chain's lifetime.
class BufferChain {
 public:
  struct Segment {
    ConstBuffer view;    ///< Always valid; aliases `owner` when owned.
    SharedBuffer owner;  ///< Empty for borrowed segments.
    [[nodiscard]] bool borrowed() const { return owner.empty() && view.size; }
  };

  BufferChain() = default;

  /// Appends an owned segment (shares a reference, no copy).  Segment-list
  /// growth is the gather channel's amortised cost, exempt like the pool's
  /// own recycling (see hot.h).
  void append(SharedBuffer b) {
    ROC_ALLOC_EXEMPT("why: amortised segment-list growth");
    total_ += b.size();
    Segment s;
    s.view = ConstBuffer(b);
    s.owner = std::move(b);
    segs_.push_back(std::move(s));
  }

  /// Appends a borrowed segment aliasing `[data, data+n)`.
  void append_borrowed(const void* data, size_t n) {
    ROC_ALLOC_EXEMPT("why: amortised segment-list growth");
    total_ += n;
    segs_.push_back(Segment{ConstBuffer(data, n), SharedBuffer()});
  }
  void append_borrowed(ConstBuffer b) { append_borrowed(b.data, b.size); }

  [[nodiscard]] size_t total_bytes() const { return total_; }
  [[nodiscard]] size_t segment_count() const { return segs_.size(); }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] const std::vector<Segment>& segments() const { return segs_; }

  /// Copies every segment, in order, into `out` (caller provides
  /// `total_bytes()` of room).
  void gather_into(unsigned char* out) const;

  /// Flattens into one contiguous SharedBuffer — the chain's single
  /// permitted copy.  With `pool` the storage is pool-recycled.
  [[nodiscard]] SharedBuffer gather(BufferPool* pool = nullptr) const;

  /// Flattened bytes as a plain vector (compatibility / tests).
  [[nodiscard]] std::vector<unsigned char> to_vector() const;

  void clear() {
    segs_.clear();
    total_ = 0;
  }

 private:
  std::vector<Segment> segs_;
  size_t total_ = 0;
};

namespace detail {

/// Number of power-of-two size classes a BufferPool keeps.  Bucket `i`
/// recycles vectors of capacity `kMinBucketBytes << i`.
constexpr size_t kPoolBuckets = 16;
constexpr size_t kMinBucketBytes = 1024;  // smallest pooled capacity
constexpr size_t kMaxPooledBytes = kMinBucketBytes
                                   << (kPoolBuckets - 1);  // 32 MiB

/// Shared pool state; outlives the BufferPool facade while sealed buffers
/// still reference it (via weak_ptr, so a dead pool never leaks storage).
struct BufferPoolState {
  explicit BufferPoolState(size_t max_per_bucket_)
      : max_per_bucket(max_per_bucket_) {}

  roc::Mutex mutex{"buffer_pool"};
  std::array<std::vector<std::vector<unsigned char>>, kPoolBuckets> free_lists
      ROC_GUARDED_BY(mutex);
  uint64_t hits ROC_GUARDED_BY(mutex) = 0;      ///< acquire served from pool
  uint64_t misses ROC_GUARDED_BY(mutex) = 0;    ///< acquire allocated fresh
  uint64_t returns ROC_GUARDED_BY(mutex) = 0;   ///< storage recycled
  uint64_t discards ROC_GUARDED_BY(mutex) = 0;  ///< storage freed (full/big)
  const size_t max_per_bucket;
};

/// Returns `bytes`' storage to the pool (or frees it if the bucket is full
/// or the buffer is outside the pooled size range).
void pool_release(BufferPoolState& s, std::vector<unsigned char> bytes)
    ROC_EXCLUDES(s.mutex);

}  // namespace detail

/// Thread-safe, size-bucketed recycler for the vectors backing
/// `SharedBuffer`s.  Usage: `acquire(n)` hands out a vector of size `n`
/// (capacity possibly recycled), the caller fills it, `seal(std::move(v))`
/// freezes it into a SharedBuffer whose storage returns here on last
/// release.
class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;      ///< acquires served from a free list
    uint64_t misses = 0;    ///< acquires that allocated fresh storage
    uint64_t returns = 0;   ///< buffers recycled back into the pool
    uint64_t discards = 0;  ///< buffers freed instead of recycled
  };

  /// `max_per_bucket` bounds how many idle vectors each size class keeps.
  explicit BufferPool(size_t max_per_bucket = 8);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A mutable vector of exactly `n` bytes, recycled when possible.
  /// Contents are unspecified: recycled storage is handed out without
  /// zeroing and still holds its previous user's bytes.  Every caller
  /// overwrites what it reads (gather_into writes all `n` bytes, ByteWriter
  /// discards the contents).
  [[nodiscard]] std::vector<unsigned char> acquire(size_t n);

  /// Freezes `bytes` into an immutable SharedBuffer; the storage returns to
  /// this pool when the last reference drops (vectors not obtained from
  /// acquire() are accepted and simply enter the recycling cycle).
  [[nodiscard]] SharedBuffer seal(std::vector<unsigned char> bytes);

  /// Convenience: acquire + gather_into + seal in one call.
  [[nodiscard]] SharedBuffer gather(const BufferChain& chain);

  [[nodiscard]] Stats stats() const;

 private:
  std::shared_ptr<detail::BufferPoolState> state_;
};

}  // namespace roc
