#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define VALKYRIE_SHA_NI 1
#endif

namespace valkyrie::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef VALKYRIE_SHA_NI

bool sha256_ni_available() noexcept {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return available;
}

#define VALKYRIE_SHA_TARGET __attribute__((target("sha,ssse3,sse4.1")))

namespace {

VALKYRIE_SHA_TARGET __m128i load(const void* at) {
  return _mm_loadu_si128(static_cast<const __m128i*>(at));
}

}  // namespace

// Lanes are named from the highest: the round instruction keeps the state
// as (a, b, e, f) and (c, d, g, h), and takes two rounds' message words plus
// constants from the low half of its third operand.
VALKYRIE_SHA_TARGET void sha256_compress_ni(std::uint32_t* state,
                                            const std::uint8_t* data,
                                            std::size_t blocks) noexcept {
  // Message words are big-endian: reverse the bytes of each lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab = _mm_shuffle_epi32(load(state), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(load(state + 4), 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g & 3] holds message words 4g..4g+3; each group's four rounds are
    // followed by the schedule of the group four ahead, into its slot.
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(load(data + 16 * i), byte_swap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i wk =
          _mm_add_epi32(w[g & 3], load(kRoundConstants.data() + 4 * g));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (g < 12) {
        const __m128i w7 = _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4);
        w[g & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]), w7),
            w[(g + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool sha256_ni_available() noexcept { return false; }

void sha256_compress_ni(std::uint32_t*, const std::uint8_t*,
                        std::size_t) noexcept {
  // never called: sha256_ni_available() is false
}

#endif

}  // namespace detail

void Sha256::compress(const std::uint8_t* data, std::size_t blocks) noexcept {
  if (detail::sha256_ni_available()) {
    detail::sha256_compress_ni(h_.data(), data, blocks);
  } else {
    detail::sha256_compress_portable(h_.data(), data, blocks);
  }
}

void Sha256::reset() noexcept {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    offset += take;
    if (buf_len_ == buf_.size()) {
      compress(buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buf_.data(), data.data() + offset, data.size() - offset);
    buf_len_ = data.size() - offset;
  }
}

Sha256Digest Sha256::finish() noexcept {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length in the last
  // eight bytes of a block, which is a block of its own when the message
  // leaves fewer than nine bytes free.
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    compress(buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(buf_.data(), 1);

  Sha256Digest digest{};
  for (int i = 0; i < 8; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  reset();
  return digest;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Sha256Digest Sha256::hash2(std::span<const std::uint8_t> data) noexcept {
  const Sha256Digest first = hash(data);
  return hash({first.data(), first.size()});
}

std::string to_hex(const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

int leading_zero_bits(const Sha256Digest& digest) noexcept {
  int bits = 0;
  for (const std::uint8_t byte : digest) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    for (int b = 7; b >= 0; --b) {
      if (byte & (1u << b)) return bits;
      ++bits;
    }
  }
  return bits;
}

}  // namespace valkyrie::crypto
