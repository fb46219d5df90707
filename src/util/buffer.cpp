#include "util/buffer.h"

#include <cstring>

namespace roc {

SharedBuffer SharedBuffer::copy_of(const void* data, size_t n) {
  std::vector<unsigned char> v(n);
  // memcpy's arguments are declared nonnull even for zero sizes.
  if (n > 0) std::memcpy(v.data(), data, n);
  return adopt(std::move(v));
}

SharedBuffer SharedBuffer::adopt(std::vector<unsigned char> bytes) {
  if (bytes.empty()) return {};
  auto owner =
      std::make_shared<const std::vector<unsigned char>>(std::move(bytes));
  const unsigned char* d = owner->data();
  const size_t n = owner->size();
  return SharedBuffer(std::move(owner), d, n);
}

void BufferChain::gather_into(unsigned char* out) const {
  for (const Segment& s : segs_) {
    if (s.view.size > 0) std::memcpy(out, s.view.data, s.view.size);
    out += s.view.size;
  }
}

SharedBuffer BufferChain::gather(BufferPool* pool) const {
  if (total_ == 0) return {};
  std::vector<unsigned char> v =
      pool ? pool->acquire(total_) : std::vector<unsigned char>(total_);
  gather_into(v.data());
  return pool ? pool->seal(std::move(v)) : SharedBuffer::adopt(std::move(v));
}

std::vector<unsigned char> BufferChain::to_vector() const {
  std::vector<unsigned char> v(total_);
  gather_into(v.data());
  return v;
}

namespace detail {
namespace {

/// Index of the smallest size class whose capacity is >= n, or kPoolBuckets
/// if n exceeds the pooled range.
size_t bucket_of(size_t n) {
  size_t cap = kMinBucketBytes;
  for (size_t i = 0; i < kPoolBuckets; ++i, cap <<= 1)
    if (n <= cap) return i;
  return kPoolBuckets;
}

size_t bucket_capacity(size_t i) { return kMinBucketBytes << i; }

/// Ref-count payload of a pool-sealed SharedBuffer: recycles the storage on
/// last release, or frees it if the pool died first.
struct PooledRep {
  std::vector<unsigned char> bytes;
  std::weak_ptr<BufferPoolState> pool;

  ~PooledRep() {
    if (auto s = pool.lock()) pool_release(*s, std::move(bytes));
  }
};

}  // namespace

void pool_release(BufferPoolState& s, std::vector<unsigned char> bytes) {
  ROC_ALLOC_EXEMPT("why: free-list growth is the recycler's own cost");
  const size_t b = bucket_of(bytes.capacity());
  MutexLock lock(s.mutex);
  // Annotated for the concurrency checker: release runs on whichever
  // thread drops the last SharedBuffer reference (PooledRep::~PooledRep),
  // so this is the pool's cross-thread hot spot.
  ROC_CHECK_SHARED_WRITE(&s.free_lists, "buffer_pool.state");
  if (b >= kPoolBuckets || s.free_lists[b].size() >= s.max_per_bucket) {
    ++s.discards;
    return;  // `bytes` (a parameter) frees after `lock` releases.
  }
  // No clear(): the vector keeps its size, so the next acquire() of the
  // same size hands it out without zero-filling it again.
  s.free_lists[b].push_back(std::move(bytes));
  ++s.returns;
}

}  // namespace detail

BufferPool::BufferPool(size_t max_per_bucket)
    : state_(std::make_shared<detail::BufferPoolState>(
          max_per_bucket > 0 ? max_per_bucket : 1)) {}

std::vector<unsigned char> BufferPool::acquire(size_t n) {
  // The sanctioned channel (DESIGN.md copy discipline): a cold-start miss
  // allocates, steady state recycles.  Exempt so allocs/op counters are
  // never charged for pool warm-up -- mirrored by the static analyzer's
  // CHANNEL_METHODS leaf set (tools/rocanalyze/allocsum.py).
  ROC_ALLOC_EXEMPT("why: pool warm-up; steady state recycles");
  const size_t b = detail::bucket_of(n);
  if (b < detail::kPoolBuckets) {
    MutexLock lock(state_->mutex);
    ROC_CHECK_SHARED_WRITE(&state_->free_lists, "buffer_pool.state");
    auto& list = state_->free_lists[b];
    if (!list.empty()) {
      std::vector<unsigned char> v = std::move(list.back());
      list.pop_back();
      ++state_->hits;
      v.resize(n);  // shrinking is free; only growth is zero-filled
      return v;
    }
    ++state_->misses;
  } else {
    MutexLock lock(state_->mutex);
    ROC_CHECK_SHARED_WRITE(&state_->free_lists, "buffer_pool.state");
    ++state_->misses;
  }
  std::vector<unsigned char> v;
  // Reserve the full bucket capacity so the vector re-enters its size class
  // on release regardless of the exact requested size.
  if (b < detail::kPoolBuckets) v.reserve(detail::bucket_capacity(b));
  v.resize(n);
  return v;
}

SharedBuffer BufferPool::seal(std::vector<unsigned char> bytes) {
  ROC_ALLOC_EXEMPT("why: one PooledRep control block per seal, the "
                   "channel's documented cost");
  if (bytes.empty()) {
    detail::pool_release(*state_, std::move(bytes));
    return {};
  }
  auto rep = std::make_shared<detail::PooledRep>();
  rep->bytes = std::move(bytes);
  rep->pool = state_;
  const unsigned char* d = rep->bytes.data();
  const size_t n = rep->bytes.size();
  return SharedBuffer(std::shared_ptr<const void>(std::move(rep)), d, n);
}

SharedBuffer BufferPool::gather(const BufferChain& chain) {
  if (chain.total_bytes() == 0) return {};
  std::vector<unsigned char> v = acquire(chain.total_bytes());
  chain.gather_into(v.data());
  return seal(std::move(v));
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lock(state_->mutex);
  ROC_CHECK_SHARED_READ(&state_->free_lists, "buffer_pool.state");
  return Stats{state_->hits, state_->misses, state_->returns,
               state_->discards};
}

}  // namespace roc
