#include "util/serial.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define VALKYRIE_CRC32_CLMUL 1
#endif

namespace valkyrie::util::detail {

#ifdef VALKYRIE_CRC32_CLMUL

bool crc32_clmul_available() noexcept {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return available;
}

#define VALKYRIE_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

namespace {

VALKYRIE_CLMUL_TARGET __m128i load(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

VALKYRIE_CLMUL_TARGET __m128i constants(const std::uint64_t* k) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(k));
}

/// acc carried `k`'s distance forward, folded onto the next data block.
VALKYRIE_CLMUL_TARGET __m128i fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x11),
                                     _mm_clmulepi64_si128(acc, k, 0x00)),
                       next);
}

}  // namespace

// The constants are k1..k5, P and mu of Intel's "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ" for the bit-reflected polynomial
// 0xEDB88320: the 64-byte and 16-byte fold distances, the 64-bit fold, and
// the Barrett reduction. test_serial pins the result against a bitwise CRC.
VALKYRIE_CLMUL_TARGET std::uint32_t crc32_clmul(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) noexcept {
  alignas(16) static constexpr std::uint64_t kFold64[] = {0x0154442bd4,
                                                          0x01c6e41596};
  alignas(16) static constexpr std::uint64_t kFold16[] = {0x01751997d0,
                                                          0x00ccaa009e};
  alignas(16) static constexpr std::uint64_t kFold8[] = {0x0163cd6124, 0};
  alignas(16) static constexpr std::uint64_t kBarrett[] = {0x01db710641,
                                                           0x01f7011641};
  // Four 16-byte lanes across each 64-byte block.
  __m128i x1 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  __m128i k = constants(kFold64);
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k, load(p));
    x2 = fold(x2, k, load(p + 16));
    x3 = fold(x3, k, load(p + 32));
    x4 = fold(x4, k, load(p + 48));
  }
  // The lanes into one, then any remaining 16-byte blocks.
  k = constants(kFold16);
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k, load(p));

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold8));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x00),
      _mm_srli_si128(x1, 4));
  k = constants(kBarrett);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

#else

bool crc32_clmul_available() noexcept { return false; }

std::uint32_t crc32_clmul(const std::uint8_t*, std::size_t,
                          std::uint32_t crc) noexcept {
  return crc;  // never called: crc32_clmul_available() is false
}

#endif

}  // namespace valkyrie::util::detail
