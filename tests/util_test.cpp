/// \file util_test.cpp
/// \brief Unit tests for serialization, CRC-64, RNG, logging and errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/buffer.h"
#include "util/crc64.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace roc {
namespace {

TEST(Serialize, RoundTripScalars) {
  ByteWriter w;
  w.put<int32_t>(-42);
  w.put<uint64_t>(0xDEADBEEFCAFEBABEULL);
  w.put<double>(3.14159);
  w.put<float>(-2.5f);
  w.put<uint8_t>(255);
  w.put<int64_t>(std::numeric_limits<int64_t>::min());

  ByteReader r(w.data(), w.size());
  EXPECT_EQ(r.get<int32_t>(), -42);
  EXPECT_EQ(r.get<uint64_t>(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.14159);
  EXPECT_FLOAT_EQ(r.get<float>(), -2.5f);
  EXPECT_EQ(r.get<uint8_t>(), 255);
  EXPECT_EQ(r.get<int64_t>(), std::numeric_limits<int64_t>::min());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, RoundTripStringsAndVectors) {
  ByteWriter w;
  w.put_string("hello world");
  w.put_string("");
  w.put_vector(std::vector<double>{1.0, 2.0, 3.0});
  w.put_vector(std::vector<int32_t>{});

  ByteReader r(w.data(), w.size());
  EXPECT_EQ(r.get_string(), "hello world");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_vector<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(r.get_vector<int32_t>().empty());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, LittleEndianOnDisk) {
  // The encoding contract: 0x01020304 must serialize as 04 03 02 01.
  ByteWriter w;
  w.put<uint32_t>(0x01020304u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[1], 0x03);
  EXPECT_EQ(w.data()[2], 0x02);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Serialize, TruncationThrowsFormatError) {
  ByteWriter w;
  w.put<uint32_t>(7);
  ByteReader r(w.data(), w.size());
  (void)r.get<uint32_t>();
  EXPECT_THROW((void)r.get<uint8_t>(), FormatError);
}

TEST(Serialize, TruncatedStringThrows) {
  ByteWriter w;
  w.put<uint32_t>(100);  // claims 100 bytes follow; none do
  ByteReader r(w.data(), w.size());
  EXPECT_THROW((void)r.get_string(), FormatError);
}

TEST(Serialize, HugeVectorCountRejectedBeforeAllocation) {
  ByteWriter w;
  w.put<uint64_t>(std::numeric_limits<uint64_t>::max());  // absurd count
  ByteReader r(w.data(), w.size());
  EXPECT_THROW((void)r.get_vector<double>(), FormatError);
}

TEST(Serialize, SkipAndRemaining) {
  ByteWriter w;
  w.put<uint64_t>(1);
  w.put<uint64_t>(2);
  ByteReader r(w.data(), w.size());
  EXPECT_EQ(r.remaining(), 16u);
  r.skip(8);
  EXPECT_EQ(r.get<uint64_t>(), 2u);
  EXPECT_THROW(r.skip(1), FormatError);
}

TEST(Crc64, KnownProperties) {
  // Deterministic, order-sensitive, spread.
  const char a[] = "hello";
  const char b[] = "hellp";
  EXPECT_EQ(crc64(a, 5), crc64(a, 5));
  EXPECT_NE(crc64(a, 5), crc64(b, 5));
  EXPECT_NE(crc64(a, 5), crc64(a, 4));
  EXPECT_NE(crc64(a, 0), crc64(a, 1));
}

TEST(Crc64, StreamingMatchesOneShot) {
  std::vector<unsigned char> data(1000);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<unsigned char>(i * 31);
  Crc64 c;
  c.update(data.data(), 400);
  c.update(data.data() + 400, 600);
  EXPECT_EQ(c.value(), crc64(data.data(), data.size()));
}

TEST(Crc64, SlicedMatchesBitwiseReference) {
  // Randomized equivalence: the slicing-by-8 implementation must agree
  // with the bit-at-a-time reference on arbitrary lengths and contents,
  // including lengths that exercise the unaligned head/tail paths.
  Rng rng(0xc5c64u);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = static_cast<size_t>(rng.next_below(301));
    std::vector<unsigned char> data(n);
    for (auto& b : data)
      b = static_cast<unsigned char>(rng.next_below(256));

    Crc64 sliced;
    // Split the input at a random point to exercise streaming too.
    const size_t cut = static_cast<size_t>(rng.next_below(n + 1));
    sliced.update(data.data(), cut);
    sliced.update(data.data() + cut, n - cut);

    uint64_t ref = crc64_update_bitwise(~0ULL, data.data(), n);
    EXPECT_EQ(sliced.value(), ~ref) << "length " << n;
    EXPECT_EQ(crc64(data.data(), n), ~ref);
  }
}

TEST(Crc64, KnownAnswer) {
  // CRC-64/XZ check value: reflected ECMA-182, all-ones init and xorout.
  EXPECT_EQ(crc64("123456789", 9), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(~crc64_update_sliced(~0ULL, "123456789", 9),
            0x995DC9BBDF1939FAULL);
  EXPECT_EQ(~crc64_update_bitwise(~0ULL, "123456789", 9),
            0x995DC9BBDF1939FAULL);
}

std::vector<unsigned char> random_bytes(Rng& rng, size_t n) {
  std::vector<unsigned char> data(n);
  for (auto& b : data) b = static_cast<unsigned char>(rng.next_u64());
  return data;
}

TEST(Crc64, DispatchedMatchesSlicedAndBitwiseOnEveryShortLength) {
  // Every length through the folding threshold, the 64-byte lane loop, the
  // 16-byte chunk loop and the tail.
  Rng rng(0x5eed64u);
  const auto data = random_bytes(rng, 1024);
  for (size_t n = 0; n <= data.size(); ++n) {
    const uint64_t ref = crc64_update_bitwise(~0ULL, data.data(), n);
    ASSERT_EQ(crc64_update_sliced(~0ULL, data.data(), n), ref) << n;
    ASSERT_EQ(crc64(data.data(), n), ~ref) << n;
  }
}

TEST(Crc64, DispatchedMatchesSlicedOnLongLengths) {
  Rng rng(0xb16c4cu);
  const auto data = random_bytes(rng, size_t{1} << 20);
  for (int trial = 0; trial < 24; ++trial) {
    const size_t n = static_cast<size_t>(rng.next_below(data.size() + 1));
    ASSERT_EQ(crc64(data.data(), n),
              ~crc64_update_sliced(~0ULL, data.data(), n))
        << "length " << n;
  }
  // The full MiB against the reference too.
  EXPECT_EQ(crc64(data.data(), data.size()),
            ~crc64_update_bitwise(~0ULL, data.data(), data.size()));
}

TEST(Crc64, UnalignedStartsSplitsAndSeeds) {
  Rng rng(0xa11e9u);
  const auto data = random_bytes(rng, 8192);
  for (size_t off = 0; off < 16; ++off) {
    for (int trial = 0; trial < 8; ++trial) {
      const size_t n = 1 + static_cast<size_t>(
                               rng.next_below(data.size() - off - 1));
      const unsigned char* p = data.data() + off;
      // A random cut; a cut inside a 64-byte fold block after the first
      // update was already folded (128 + 0..63); and a short sliced first
      // update.  The second update starts from an arbitrary running state.
      for (const size_t cut :
           {static_cast<size_t>(rng.next_below(n + 1)),
            std::min<size_t>(n, 128 + static_cast<size_t>(
                                          rng.next_below(64))),
            std::min<size_t>(n, 37)}) {
        Crc64 c;
        c.update(p, cut);
        c.update(p + cut, n - cut);
        ASSERT_EQ(c.value(), ~crc64_update_bitwise(~0ULL, p, n))
            << "offset " << off << " length " << n << " cut " << cut;
      }
      // Seeds other than ~0 on the portable kernel.
      const uint64_t seed = rng.next_u64();
      ASSERT_EQ(crc64_update_sliced(seed, p, n),
                crc64_update_bitwise(seed, p, n));
    }
  }
}

TEST(Serialize, PutRawArrayMatchesElementwisePut) {
  const std::vector<double> values = {0.0, -1.5, 3.25e300, 1e-300};
  ByteWriter raw;
  raw.put_raw_array(values.data(), values.size());
  ByteWriter loop;
  for (double v : values) loop.put<double>(v);
  ASSERT_EQ(raw.size(), loop.size());
  EXPECT_EQ(0, std::memcmp(raw.data(), loop.data(), raw.size()));

  ByteReader r(raw.data(), raw.size());
  for (double v : values) EXPECT_EQ(r.get<double>(), v);
}

TEST(Buffer, SharedBufferSharesNotCopies) {
  const SharedBuffer empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.use_count(), 0);

  std::vector<unsigned char> bytes = {1, 2, 3, 4};
  const unsigned char* storage = bytes.data();
  SharedBuffer a = SharedBuffer::adopt(std::move(bytes));
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.data(), storage);  // adopt moves, never copies
  EXPECT_EQ(a.use_count(), 1);

  SharedBuffer b = a;  // handle copy: same bytes, refcount 2
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(a.use_count(), 2);

  SharedBuffer c = SharedBuffer::copy_of(a.data(), a.size());
  EXPECT_NE(c.data(), a.data());
  EXPECT_EQ(c.to_vector(), a.to_vector());
}

TEST(Buffer, ChainGathersOwnedAndBorrowedInOrder) {
  std::vector<unsigned char> borrowed = {10, 11, 12};
  BufferChain chain;
  chain.append(SharedBuffer::adopt({1, 2}));
  chain.append_borrowed(borrowed.data(), borrowed.size());
  chain.append_borrowed(nullptr, 0);  // empty segments are legal
  chain.append(SharedBuffer::adopt({20}));

  EXPECT_EQ(chain.total_bytes(), 6u);
  EXPECT_EQ(chain.segment_count(), 4u);
  EXPECT_TRUE(chain.segments()[1].borrowed());
  EXPECT_FALSE(chain.segments()[0].borrowed());

  const std::vector<unsigned char> expect = {1, 2, 10, 11, 12, 20};
  EXPECT_EQ(chain.to_vector(), expect);
  EXPECT_EQ(chain.gather().to_vector(), expect);

  chain.clear();
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.gather().size(), 0u);
}

TEST(Buffer, PoolRecyclesStorage) {
  BufferPool pool;
  auto v = pool.acquire(2000);
  EXPECT_EQ(v.size(), 2000u);
  const unsigned char* storage = v.data();
  {
    SharedBuffer sealed = pool.seal(std::move(v));
    EXPECT_EQ(sealed.data(), storage);
    EXPECT_EQ(pool.stats().misses, 1u);
    EXPECT_EQ(pool.stats().returns, 0u);
  }  // last reference dropped: storage goes back to the pool
  EXPECT_EQ(pool.stats().returns, 1u);

  auto w = pool.acquire(1500);  // same power-of-two bucket as 2000
  EXPECT_EQ(w.data(), storage);
  EXPECT_EQ(pool.stats().hits, 1u);
  (void)pool.seal(std::move(w));
}

TEST(Buffer, PoolHandsOutRecycledStorageWithoutZeroing) {
  // acquire()'s contents are unspecified: recycled storage keeps its
  // previous bytes instead of being zero-filled on every cycle.
  BufferPool pool;
  auto v = pool.acquire(4096);
  std::fill(v.begin(), v.end(), 0xAB);
  const unsigned char* storage = v.data();
  (void)pool.seal(std::move(v));  // dropped at once: storage recycled
  auto w = pool.acquire(4096);
  ASSERT_EQ(w.data(), storage);
  ASSERT_EQ(w.size(), 4096u);
  EXPECT_EQ(w[0], 0xAB);
  EXPECT_EQ(w[4095], 0xAB);
  // A smaller request from the same size class reuses the storage too.
  (void)pool.seal(std::move(w));
  auto x = pool.acquire(3000);
  EXPECT_EQ(x.data(), storage);
  EXPECT_EQ(x.size(), 3000u);
  (void)pool.seal(std::move(x));
}

TEST(Buffer, PoolSealedBufferSurvivesPoolDestruction) {
  SharedBuffer survivor;
  {
    BufferPool pool;
    auto v = pool.acquire(64);
    for (size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<unsigned char>(i);
    survivor = pool.seal(std::move(v));
  }  // pool gone; the buffer must keep its bytes (and free them itself)
  ASSERT_EQ(survivor.size(), 64u);
  EXPECT_EQ(survivor.data()[63], 63);
}

TEST(Buffer, PoolBoundsIdleStoragePerBucket) {
  BufferPool pool(/*max_per_bucket=*/1);
  auto a = pool.seal(pool.acquire(1000));
  auto b = pool.seal(pool.acquire(1000));
  a = SharedBuffer();  // recycled (bucket now full)
  b = SharedBuffer();  // discarded
  EXPECT_EQ(pool.stats().returns, 1u);
  EXPECT_EQ(pool.stats().discards, 1u);
}

TEST(Buffer, PoolGatherFlattensChain) {
  BufferPool pool;
  std::vector<unsigned char> payload(5000, 0xab);
  BufferChain chain;
  chain.append(SharedBuffer::adopt({1, 2, 3}));
  chain.append_borrowed(payload.data(), payload.size());
  SharedBuffer flat = pool.gather(chain);
  EXPECT_EQ(flat.size(), 5003u);
  EXPECT_EQ(flat.data()[0], 1);
  EXPECT_EQ(flat.data()[5002], 0xab);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(12345), b(12345), c(54321);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng a2(12345);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const int64_t v = rng.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    EXPECT_LT(rng.next_below(10), 10u);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(1);
  Rng b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Error, HierarchyAndMessages) {
  try {
    throw IoError("disk on fire");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("disk on fire"), std::string::npos);
  }
  EXPECT_THROW(require(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(require(true, "fine"));
}

TEST(Log, LevelFiltering) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  ROC_WARN << "suppressed (below kError)";
  set_log_level(saved);
}

}  // namespace
}  // namespace roc
