#include "util/crc64.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define ROC_CRC64_FOLD 1
#endif

namespace roc {
namespace {

// ECMA-182 polynomial, bit-reflected form.
constexpr uint64_t kPoly = 0xC96C5795D7870F42ULL;

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table;
// table[k][b] extends table[k-1][b] by one zero byte, so eight input bytes
// fold into the CRC with eight independent lookups per iteration instead of
// eight serially-dependent ones.
using Tables = std::array<std::array<uint64_t, 256>, 8>;

Tables make_tables() {
  Tables t{};
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int b = 0; b < 8; ++b)
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    t[0][static_cast<size_t>(i)] = crc;
  }
  for (size_t k = 1; k < 8; ++k)
    for (size_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
  return t;
}

const Tables& tables() {
  static const Tables t = make_tables();
  return t;
}

#ifdef ROC_CRC64_FOLD

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009).
//
// In the reflected domain a 16-byte little-endian load holds a 128-bit
// polynomial whose bit j is the coefficient of x^(127-j): the low qword
// carries the high-degree half.  Moving a chunk D bits further down the
// message multiplies it by x^D, so
//   chunk * x^D == lo * (x^(D+64) mod P) + hi * (x^D mod P)   (mod P).
// A reflected carry-less product of two 64-bit values lands one bit short
// of that 128-bit layout, so each constant carries one factor of x less:
// x^(D+63) and x^(D-1).  Folding four lanes 512 bits ahead uses x^575 and
// x^511, folding one lane 128 bits ahead x^191 and x^127.
//
// The folded 128-bit remainder is itself a 16-byte message whose CRC from a
// zero state equals the CRC of everything folded into it, so the slicing-by-8
// step finishes it (and the tail) without Barrett reduction.

/// x^e mod P, bit-reflected (bit i is the coefficient of x^(63-i)).
constexpr uint64_t xpow_mod(unsigned e) {
  uint64_t r = 1ULL << 63;  // x^0
  for (unsigned i = 0; i < e; ++i) r = (r >> 1) ^ ((r & 1) ? kPoly : 0);
  return r;
}

constexpr uint64_t kFold512Lo = xpow_mod(575);
constexpr uint64_t kFold512Hi = xpow_mod(511);
constexpr uint64_t kFold128Lo = xpow_mod(191);
constexpr uint64_t kFold128Hi = xpow_mod(127);

// Below this many bytes the lane set-up and the 16-byte finish cost more
// than they save.
constexpr size_t kFoldMinBytes = 128;

// The lane loop prefetches this far ahead.  On arrays streamed from memory
// the hardware prefetchers alone kept it near 6 GB/s, against 15 GB/s with
// the hint (4-vCPU Xeon VM).  Only inside the buffer: hints past its end
// cost short inputs a third of their speed.
constexpr size_t kPrefetchBytes = 2048;

__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x,
                                                             __m128i k) {
  // k holds {lo-constant, hi-constant}: multiply x.lo by k.lo and x.hi by
  // k.hi.
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load(
    const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__attribute__((target("pclmul,sse4.1"))) uint64_t update_folded(
    uint64_t crc, const void* data, size_t n) {
  if (n < kFoldMinBytes) return crc64_update_sliced(crc, data, n);
  const auto* p = static_cast<const unsigned char*>(data);
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kFold512Hi),
                                      static_cast<long long>(kFold512Lo));
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128Hi),
                                      static_cast<long long>(kFold128Lo));

  // The running state joins the message as the first 64 bits.
  __m128i x0 = _mm_xor_si128(
      load(p), _mm_cvtsi64_si128(static_cast<long long>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    if (n > kPrefetchBytes)
      _mm_prefetch(reinterpret_cast<const char*>(p) + kPrefetchBytes,
                   _MM_HINT_T0);
    x0 = _mm_xor_si128(fold(x0, k512), load(p));
    x1 = _mm_xor_si128(fold(x1, k512), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k512), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k512), load(p + 48));
    p += 64;
    n -= 64;
  }
  // Four lanes into one, then any whole 16-byte chunks left.
  x1 = _mm_xor_si128(fold(x0, k128), x1);
  x2 = _mm_xor_si128(fold(x1, k128), x2);
  __m128i x = _mm_xor_si128(fold(x2, k128), x3);
  while (n >= 16) {
    x = _mm_xor_si128(fold(x, k128), load(p));
    p += 16;
    n -= 16;
  }
  alignas(16) unsigned char rem[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(rem), x);
  crc = crc64_update_sliced(0, rem, sizeof rem);
  return crc64_update_sliced(crc, p, n);
}

#endif  // ROC_CRC64_FOLD

using UpdateFn = uint64_t (*)(uint64_t, const void*, size_t);

/// The widest kernel this CPU runs, chosen once.
UpdateFn select_update() {
#ifdef ROC_CRC64_FOLD
  __builtin_cpu_init();  // the first checksum may run in a static initializer
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
    return update_folded;
#endif
  return crc64_update_sliced;
}

}  // namespace

uint64_t crc64_update_bitwise(uint64_t state, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int b = 0; b < 8; ++b)
      state = (state >> 1) ^ ((state & 1) ? kPoly : 0);
  }
  return state;
}

uint64_t crc64_update_sliced(uint64_t state, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = tables();
  uint64_t crc = state;
  // 8 bytes per iteration: fold the low half of the CRC with the first four
  // input bytes, then look up all eight lanes independently.
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    if constexpr (__BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__)
      word = __builtin_bswap64(word);
    word ^= crc;
    crc = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][word >> 56];
    p += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i)
    crc = t[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return crc;
}

void Crc64::update(const void* data, size_t n) {
  static const UpdateFn kUpdate = select_update();
  state_ = kUpdate(state_, data, n);
}

uint64_t crc64(const void* data, size_t n) {
  Crc64 c;
  c.update(data, n);
  return c.value();
}

}  // namespace roc
