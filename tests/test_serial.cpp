// The codec primitives under the snapshot format: the CRC-32 (table-sliced,
// and folded by carry-less multiplication where the CPU can) against a
// bytewise reference, the word-wide little-endian fields, and the
// block reads and writes for runs of doubles.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/serial.hpp"

namespace valkyrie::util {
namespace {

/// Reference CRC-32 state update: one byte at a time, one bit at a time,
/// no tables.
std::uint32_t crc32_bytewise_from(std::uint32_t crc,
                                  std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc;
}

/// Reference CRC-32 — the oracle every implementation must match exactly.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes) {
  return crc32_bytewise_from(0xffffffffu, bytes) ^ 0xffffffffu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Doubles whose bit patterns a lossy codec would mangle.
std::vector<double> awkward_doubles() {
  return {-0.0,
          0.0,
          std::bit_cast<double>(0x7ff80000'0000beefULL),  // quiet NaN payload
          std::bit_cast<double>(0xfff00000'00000001ULL),  // signalling NaN
          std::bit_cast<double>(0x00000000'00000001ULL),  // smallest denormal
          std::bit_cast<double>(0x000fffff'ffffffffULL),  // largest denormal
          std::bit_cast<double>(0x80000000'00000123ULL),  // negative denormal
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::max(),
          1.0,
          -1.0 / 3.0};
}

TEST(Crc32, KnownAnswer) {
  constexpr std::string_view kCheck = "123456789";
  const std::span<const std::uint8_t> check(
      reinterpret_cast<const std::uint8_t*>(kCheck.data()), kCheck.size());
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

// Lengths past 64 take the carry-less fold on CPUs that have it: 64-byte
// blocks, then 16-byte folds, then the table tail.
TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buffer = random_bytes(300 + 16, 0xc0c0);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::span<const std::uint8_t> view(buffer.data() + offset, length);
      ASSERT_EQ(crc32(view), crc32_bytewise(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, SlicedMatchesBytewiseOnOneMebibyte) {
  const std::vector<std::uint8_t> buffer = random_bytes(1 << 20, 0x5eed);
  EXPECT_EQ(crc32(buffer), crc32_bytewise(buffer));
}

// The fold kernel itself, from arbitrary running states (crc32() only ever
// starts it from the initial one).
TEST(Crc32, CarrylessFoldAdvancesAnyRunningState) {
  if (!detail::crc32_clmul_available()) {
    GTEST_SKIP() << "no PCLMULQDQ on this CPU";
  }
  const std::vector<std::uint8_t> buffer = random_bytes(4096 + 16, 0xf01d);
  for (const std::uint32_t state : {0xffffffffu, 0u, 0x1234abcdu}) {
    for (const std::size_t length : {64u, 80u, 112u, 128u, 192u, 1040u,
                                     4096u}) {
      const std::span<const std::uint8_t> view(buffer.data() + 3, length);
      const std::uint32_t want = crc32_bytewise_from(state, view);
      EXPECT_EQ(detail::crc32_clmul(view.data(), view.size(), state), want)
          << "state " << state << " length " << length;
    }
  }
}

TEST(ByteCodec, FixedWidthFieldsAreLittleEndian) {
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  out.u32(0x01020304u);
  out.u64(0x1112131415161718ULL);
  out.f64(-0.0);
  out.u64(0);
  out.patch_u64(20, 0xa1a2a3a4a5a6a7a8ULL);
  const std::vector<std::uint8_t> expected = {
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0xa8, 0xa7, 0xa6, 0xa5, 0xa4, 0xa3, 0xa2, 0xa1,  // patched u64
  };
  EXPECT_EQ(bytes, expected);

  ByteReader in(bytes);
  EXPECT_EQ(in.u32(), 0x01020304u);
  EXPECT_EQ(in.u64(), 0x1112131415161718ULL);
  EXPECT_EQ(bits(in.f64()), bits(-0.0));
  EXPECT_EQ(in.u64(), 0xa1a2a3a4a5a6a7a8ULL);
  EXPECT_TRUE(in.done());
}

// A run writes a fixed-width group with one growth; its bytes are exactly
// those of the same fields written one call at a time.
TEST(ByteCodec, RunCursorWritesTheSameBytesAsFieldCalls) {
  const std::vector<double> doubles = awkward_doubles();
  const auto fields = [&doubles](auto& out) {
    out.u8(0xab);
    out.u32(0x01020304u);
    out.u64(0x1112131415161718ULL);
    out.f64(-0.0);
    out.f64_block(doubles);
  };
  std::vector<std::uint8_t> by_field;
  ByteWriter field_writer(by_field);
  fields(field_writer);

  std::vector<std::uint8_t> by_run;
  ByteWriter run_writer(by_run);
  run_writer.u8(0x5a);  // the run starts past existing bytes
  ByteCursor run = run_writer.run(by_field.size());
  fields(run);
  ASSERT_EQ(by_run.size(), by_field.size() + 1);
  EXPECT_EQ(std::vector<std::uint8_t>(by_run.begin() + 1, by_run.end()),
            by_field);
}

TEST(ByteCodec, BlockRoundTripsEveryBitPattern) {
  const std::vector<double> values = awkward_doubles();
  std::vector<std::uint8_t> bytes;
  ByteWriter out(bytes);
  out.f64_block(values);
  out.f64_span(values);
  ASSERT_EQ(bytes.size(), (2 * values.size() + 1) * sizeof(double));

  // The block bytes are exactly the per-field encoding.
  std::vector<std::uint8_t> fieldwise;
  ByteWriter field_out(fieldwise);
  for (const double v : values) field_out.f64(v);
  EXPECT_TRUE(std::equal(fieldwise.begin(), fieldwise.end(), bytes.begin()));

  ByteReader in(bytes);
  std::vector<double> block(values.size());
  in.f64_block(block);
  const std::vector<double> vec = in.f64_vec();
  EXPECT_TRUE(in.done());
  ASSERT_EQ(vec.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(bits(block[i]), bits(values[i])) << "block value " << i;
    EXPECT_EQ(bits(vec[i]), bits(values[i])) << "vec value " << i;
  }
}

SerialError::Code failure_code(const std::function<void()>& read) {
  try {
    read();
  } catch (const SerialError& e) {
    return e.code();
  }
  ADD_FAILURE() << "read past the end did not throw";
  return SerialError::Code::kIo;
}

TEST(ByteCodec, BlockReadPastTheEndThrowsTruncated) {
  // Seven whole doubles and three stray bytes.
  const std::vector<std::uint8_t> bytes(7 * sizeof(double) + 3, 0xab);

  ByteReader in(bytes);
  std::vector<double> eight(8);
  EXPECT_EQ(failure_code([&] { in.f64_block(eight); }),
            SerialError::Code::kTruncated);
  EXPECT_EQ(in.position(), 0u);  // nothing consumed by the failed read

  std::vector<double> seven(7);
  in.f64_block(seven);
  EXPECT_EQ(in.remaining(), 3u);
  EXPECT_EQ(failure_code([&] { (void)in.u64(); }),
            SerialError::Code::kTruncated);

  // A length prefix promising more doubles than remain is refused before
  // anything is allocated for them.
  std::vector<std::uint8_t> prefixed;
  ByteWriter out(prefixed);
  out.u64(3);
  out.f64(1.0);
  out.f64(2.0);
  ByteReader short_vec(prefixed);
  EXPECT_EQ(failure_code([&] { (void)short_vec.f64_vec(); }),
            SerialError::Code::kTruncated);
}

}  // namespace
}  // namespace valkyrie::util
