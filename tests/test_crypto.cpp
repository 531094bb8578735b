#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "crypto/aes128.hpp"
#include "crypto/modexp.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace valkyrie::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

using Compress = void (*)(std::uint32_t*, const std::uint8_t*,
                          std::size_t) noexcept;

/// SHA-256 of `message` through one compression function, padded here
/// rather than by Sha256: the blocks go to `compress` in runs whose lengths
/// `split` draws, or all in one run without it.
Sha256Digest hash_with(Compress compress, std::span<const std::uint8_t> message,
                       util::Rng* split = nullptr) {
  std::vector<std::uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{message.size()} * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t blocks = padded.size() / 64;
  for (std::size_t done = 0; done < blocks;) {
    const std::size_t run =
        split == nullptr ? blocks - done : 1 + split->below(blocks - done);
    compress(state, padded.data() + 64 * done, run);
    done += run;
  }
  Sha256Digest digest{};
  for (int i = 0; i < 32; ++i) {
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, util::Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

struct Kat {
  std::vector<std::uint8_t> message;
  const char* digest;
};

/// The FIPS 180-4 examples the Sha256 tests below pin, plus a million 'a's.
std::vector<Kat> sha256_kats() {
  return {
      {{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {bytes_of("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::vector<std::uint8_t>(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256Paths, KatsOnThePortableCompression) {
  for (const Kat& kat : sha256_kats()) {
    EXPECT_EQ(to_hex(hash_with(detail::sha256_compress_portable, kat.message)),
              kat.digest)
        << kat.message.size() << " bytes";
  }
}

TEST(Sha256Paths, KatsOnTheHardwareCompression) {
  if (!detail::sha256_ni_available()) {
    GTEST_SKIP() << "no SHA extensions on this CPU";
  }
  util::Rng split(0x5a);
  for (const Kat& kat : sha256_kats()) {
    EXPECT_EQ(to_hex(hash_with(detail::sha256_compress_ni, kat.message)),
              kat.digest)
        << kat.message.size() << " bytes";
    EXPECT_EQ(
        to_hex(hash_with(detail::sha256_compress_ni, kat.message, &split)),
        kat.digest)
        << kat.message.size() << " bytes, split";
  }
}

// Every length from 0 to 300 bytes covers both sides of the one-block
// (55/56) and two-block (119/120) padding edges. Sha256 takes whichever
// compression this CPU has, so its digests, fed whole and in random pieces
// (some spanning several blocks), must equal the portable reference.
TEST(Sha256Paths, IncrementalFeedsMatchThePortableReference) {
  util::Rng rng(0x256);
  for (std::size_t length = 0; length <= 300; ++length) {
    const std::vector<std::uint8_t> message = random_bytes(length, rng);
    const Sha256Digest want =
        hash_with(detail::sha256_compress_portable, message);
    ASSERT_EQ(Sha256::hash(message), want) << length << " bytes";
    for (int trial = 0; trial < 4; ++trial) {
      Sha256 ctx;
      for (std::size_t at = 0; at < length;) {
        const std::size_t piece = std::min<std::size_t>(
            length - at, rng.below(trial < 2 ? 70 : 200));
        ctx.update({message.data() + at, piece});
        at += piece;
      }
      ASSERT_EQ(ctx.finish(), want) << length << " bytes, trial " << trial;
    }
  }
}

TEST(Sha256Paths, HardwareCompressionMatchesPortable) {
  if (!detail::sha256_ni_available()) {
    GTEST_SKIP() << "no SHA extensions on this CPU";
  }
  util::Rng rng(0x257);
  for (std::size_t length = 0; length <= 300; ++length) {
    const std::vector<std::uint8_t> message = random_bytes(length, rng);
    const Sha256Digest want =
        hash_with(detail::sha256_compress_portable, message);
    ASSERT_EQ(hash_with(detail::sha256_compress_ni, message), want)
        << length << " bytes";
    ASSERT_EQ(hash_with(detail::sha256_compress_ni, message, &rng), want)
        << length << " bytes, split";
  }
  // From arbitrary running states, over runs of up to eight blocks.
  for (int trial = 0; trial < 64; ++trial) {
    std::uint32_t portable[8];
    for (std::uint32_t& word : portable) word = static_cast<std::uint32_t>(rng());
    std::uint32_t hardware[8];
    std::memcpy(hardware, portable, sizeof portable);
    const std::size_t blocks = 1 + rng.below(8);
    const std::vector<std::uint8_t> data = random_bytes(64 * blocks, rng);
    detail::sha256_compress_portable(portable, data.data(), blocks);
    detail::sha256_compress_ni(hardware, data.data(), blocks);
    ASSERT_EQ(std::memcmp(portable, hardware, sizeof portable), 0)
        << "trial " << trial;
  }
}

TEST(Sha256, EmptyStringKat) {
  const auto digest = Sha256::hash({});
  EXPECT_EQ(to_hex(digest),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcKat) {
  const auto data = bytes_of("abc");
  EXPECT_EQ(to_hex(Sha256::hash({data.data(), data.size()})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockKat) {
  const auto data =
      bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(to_hex(Sha256::hash({data.data(), data.size()})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAKat) {
  Sha256 ctx;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update({chunk.data(), chunk.size()});
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog!!");
  Sha256 ctx;
  ctx.update({data.data(), 10});
  ctx.update({data.data() + 10, data.size() - 10});
  EXPECT_EQ(to_hex(ctx.finish()),
            to_hex(Sha256::hash({data.data(), data.size()})));
}

TEST(Sha256, FinishResetsForReuse) {
  const auto a = bytes_of("abc");
  Sha256 ctx;
  ctx.update({a.data(), a.size()});
  (void)ctx.finish();
  ctx.update({a.data(), a.size()});
  EXPECT_EQ(to_hex(ctx.finish()),
            to_hex(Sha256::hash({a.data(), a.size()})));
}

TEST(Sha256, DoubleHashDiffersFromSingle) {
  const auto data = bytes_of("pow");
  EXPECT_NE(to_hex(Sha256::hash({data.data(), data.size()})),
            to_hex(Sha256::hash2({data.data(), data.size()})));
}

TEST(Sha256, LeadingZeroBits) {
  Sha256Digest d{};
  d.fill(0);
  EXPECT_EQ(leading_zero_bits(d), 256);
  d[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(d), 0);
  d[0] = 0x01;
  EXPECT_EQ(leading_zero_bits(d), 7);
  d[0] = 0x00;
  d[1] = 0x10;
  EXPECT_EQ(leading_zero_bits(d), 11);
}

// FIPS-197 Appendix B example vector.
TEST(Aes128, Fips197Kat) {
  const AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const AesBlock pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                       0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const AesBlock expected = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                             0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  Aes128 aes(key);
  EXPECT_EQ(aes.encrypt_block(pt), expected);
}

TEST(Aes128, KeyScheduleFirstAndLastRoundKeys) {
  // FIPS-197 A.1 expansion of the same key.
  const AesKey key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  Aes128 aes(key);
  EXPECT_EQ(aes.round_keys()[0][0], 0x2b7e1516u);
  EXPECT_EQ(aes.round_keys()[10][3], 0xb6630ca6u);
}

TEST(Aes128, TraceHas160TableAccesses) {
  Aes128 aes(AesKey{});
  std::vector<TableAccess> trace;
  (void)aes.encrypt_block(AesBlock{}, &trace);
  // 9 T-table rounds * 16 lookups + 16 final-round lookups.
  EXPECT_EQ(trace.size(), 160u);
}

TEST(Aes128, FirstRoundAccessesLeakPlaintextXorKey) {
  const AesKey key = {0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88,
                      0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x00};
  AesBlock pt{};
  for (std::size_t i = 0; i < pt.size(); ++i) {
    pt[i] = static_cast<std::uint8_t>(0xc0 + i);
  }
  Aes128 aes(key);
  std::vector<TableAccess> trace;
  (void)aes.encrypt_block(pt, &trace);
  // The very first lookup is Te0[pt[0] ^ key[0]] — the OST attack's handle.
  EXPECT_EQ(trace[0].table, 0);
  EXPECT_EQ(trace[0].index, static_cast<std::uint8_t>(pt[0] ^ key[0]));
  // Column 0's round-1 lookups cover bytes 0, 5, 10, 15 of pt^key.
  EXPECT_EQ(trace[1].index, static_cast<std::uint8_t>(pt[5] ^ key[5]));
  EXPECT_EQ(trace[2].index, static_cast<std::uint8_t>(pt[10] ^ key[10]));
  EXPECT_EQ(trace[3].index, static_cast<std::uint8_t>(pt[15] ^ key[15]));
}

TEST(Aes128, CtrRoundTrips) {
  const AesKey key = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  Aes128 aes(key);
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  const std::vector<std::uint8_t> original = data;
  aes.ctr_crypt({data.data(), data.size()}, /*nonce=*/42);
  EXPECT_NE(data, original);
  aes.ctr_crypt({data.data(), data.size()}, /*nonce=*/42);
  EXPECT_EQ(data, original);
}

TEST(Aes128, CtrDifferentNoncesDiffer) {
  Aes128 aes(AesKey{});
  std::vector<std::uint8_t> a(64, 0);
  std::vector<std::uint8_t> b(64, 0);
  aes.ctr_crypt({a.data(), a.size()}, 1);
  aes.ctr_crypt({b.data(), b.size()}, 2);
  EXPECT_NE(a, b);
}

TEST(Modexp, MatchesReference) {
  EXPECT_EQ(modexp(2, 10, 1000), 24u);
  EXPECT_EQ(modexp(3, 0, 7), 1u);
  EXPECT_EQ(modexp(10, 5, 1), 0u);
  EXPECT_EQ(modexp(7, 13, 11), 2u);  // 7^13 mod 11
}

TEST(Modexp, MulmodNoOverflow) {
  const std::uint64_t big = 0xfffffffffffffffULL;
  EXPECT_EQ(mulmod(big, big, 1000000007ULL),
            static_cast<std::uint64_t>(
                (static_cast<__uint128_t>(big) * big) % 1000000007ULL));
}

TEST(Modexp, TraceStructureMatchesBits) {
  // Exponent 0b1011: squares = 4 (one per bit), multiplies = 3 (set bits).
  std::vector<ModExpOp> trace;
  (void)modexp(5, 0b1011, 97, &trace);
  int squares = 0;
  int multiplies = 0;
  for (const ModExpOp op : trace) {
    (op == ModExpOp::kSquare ? squares : multiplies) += 1;
  }
  EXPECT_EQ(squares, 4);
  EXPECT_EQ(multiplies, 3);
  // Each multiply directly follows a square.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i] == ModExpOp::kMultiply) {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(trace[i - 1], ModExpOp::kSquare);
    }
  }
}

TEST(Modexp, BitsVariantAgreesWithWordVariant) {
  const std::vector<bool> bits = {true, false, true, true};  // 0b1011 = 11
  EXPECT_EQ(modexp_bits(5, bits, 97), modexp(5, 11, 97));
}

// Parameterised KAT sweep for CTR at odd buffer sizes (partial last block).
class CtrSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CtrSizes, RoundTripAtAnyLength) {
  Aes128 aes(AesKey{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6});
  std::vector<std::uint8_t> data(GetParam(), 0x5c);
  const auto original = data;
  aes.ctr_crypt({data.data(), data.size()}, 77);
  aes.ctr_crypt({data.data(), data.size()}, 77);
  EXPECT_EQ(data, original);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CtrSizes,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 33, 100));

}  // namespace
}  // namespace valkyrie::crypto
