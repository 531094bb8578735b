// Binary serialization primitives for the snapshot subsystem: a growing
// little-endian byte writer, a bounds-checked reader, and CRC32.
//
// The encoding is deliberately dumb — fixed-width little-endian integers,
// IEEE-754 doubles by bit pattern, length-prefixed strings — because the
// snapshot contract is bit-exactness: a restored engine must continue a run
// producing exactly the bytes the uninterrupted run would. No varints, no
// text formats, no locale anywhere near a double.
//
// Bytes move a word at a time. Each fixed-width field costs one capacity
// check (writer) or one bounds check (reader) plus one little-endian load
// or store, written as a shift expression the compiler folds into a single
// mov. Runs of doubles — samples, feature vectors — go through f64_block:
// one check for the whole run, then a tight loop; a caller that knows a
// group's total width grows the buffer once for it (ByteWriter::run) and
// stores through a ByteCursor. crc32 folds runs of 64+ bytes with carry-less
// multiplication (PCLMULQDQ) on x86-64 CPUs that have it — snapshot
// sections are megabytes, and the table walk was a third of encode — and
// is slicing-by-16 over constexpr tables otherwise and for the tail.
//
// Every reader operation validates against the remaining byte count before
// touching memory and throws a typed SerialError on violation, so a
// truncated or bit-flipped snapshot fails decode loudly instead of invoking
// undefined behaviour. Length prefixes are additionally validated against
// the remaining bytes before any allocation — callers pass each element's
// minimum encoded size to length() — so a corrupt length cannot trigger a
// multi-gigabyte reserve.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace valkyrie::util {

/// Typed decode/validation failure. The snapshot layer surfaces these
/// unchanged, so callers can switch on code() — e.g. the corruption tests
/// assert that truncation yields kTruncated, a flipped payload bit
/// kBadChecksum, a foreign file kBadMagic.
class SerialError : public std::runtime_error {
 public:
  enum class Code : std::uint8_t {
    kTruncated,           // read past the end of the buffer
    kBadMagic,            // not a snapshot file
    kBadVersion,          // snapshot format version not understood
    kBadChecksum,         // section CRC32 mismatch (bit rot / flip)
    kBadSection,          // framing broken: unknown/duplicate/missing section
    kMalformed,           // field-level inconsistency inside a section
    kIncompatible,        // decodes fine but does not match the target
                          // engine (detector hash, platform, script)
    kUnsupportedWorkload, // a live workload has no snapshot support
    kIo,                  // filesystem write/fsync/rename failure in a sink
  };

  SerialError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] Code code() const noexcept { return code_; }

 private:
  Code code_;
};

namespace detail {

// Little-endian loads and stores, written as explicit shift expressions.
// An optimizing compiler folds each into one unaligned load or store on a
// little-endian target, and the same code stays correct on any host.

inline void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
  p[4] = static_cast<std::uint8_t>(v >> 32);
  p[5] = static_cast<std::uint8_t>(v >> 40);
  p[6] = static_cast<std::uint8_t>(v >> 48);
  p[7] = static_cast<std::uint8_t>(v >> 56);
}

[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(p[0]) |
         static_cast<std::uint64_t>(p[1]) << 8 |
         static_cast<std::uint64_t>(p[2]) << 16 |
         static_cast<std::uint64_t>(p[3]) << 24 |
         static_cast<std::uint64_t>(p[4]) << 32 |
         static_cast<std::uint64_t>(p[5]) << 40 |
         static_cast<std::uint64_t>(p[6]) << 48 |
         static_cast<std::uint64_t>(p[7]) << 56;
}

/// Stores `values` by bit pattern at `p`, which must hold
/// 8 * values.size() bytes; returns the end of what was written.
inline std::uint8_t* store_f64s(std::uint8_t* p,
                                std::span<const double> values) noexcept {
  for (const double v : values) {
    store_le64(p, std::bit_cast<std::uint64_t>(v));
    p += sizeof(double);
  }
  return p;
}

/// Fills `values` from the 8 * values.size() bytes at `p`; returns the end
/// of what was read.
inline const std::uint8_t* load_f64s(const std::uint8_t* p,
                                     std::span<double> values) noexcept {
  for (double& v : values) {
    v = std::bit_cast<double>(load_le64(p));
    p += sizeof(double);
  }
  return p;
}

/// Slicing-by-16 CRC-32 tables: row 0 is the classic bytewise table for
/// the reflected polynomial 0xEDB88320; row k advances a row-(k-1) entry
/// by one more zero byte, so 16 lookups fold 16 input bytes at once.
inline constexpr auto kCrc32Tables = [] {
  std::array<std::array<std::uint32_t, 256>, 16> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}();

/// True when this CPU can run crc32_clmul (x86-64 with PCLMULQDQ and
/// SSE4.1); decided once, at the first call.
[[nodiscard]] bool crc32_clmul_available() noexcept;

/// Advances the running (pre-inversion) CRC-32 state `crc` over `n` bytes
/// at `p` by folding 64-byte blocks with carry-less multiplication, then
/// Barrett-reducing. Pre: crc32_clmul_available(), n >= 64, n % 16 == 0.
[[nodiscard]] std::uint32_t crc32_clmul(const std::uint8_t* p, std::size_t n,
                                        std::uint32_t crc) noexcept;

}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span:
/// the 16-byte-aligned bulk of a run of 64+ bytes through the carry-less
/// multiply fold where the CPU has one, then sixteen bytes per table step;
/// only the final <16 bytes go one at a time.
[[nodiscard]] inline std::uint32_t crc32(
    std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = detail::kCrc32Tables;
  // Folds one 4-byte word whose lowest byte has `ahead` more bytes after
  // it in the 16-byte step.
  const auto fold = [&t](std::uint32_t w, std::size_t ahead) noexcept {
    return t[ahead][w & 0xffu] ^ t[ahead - 1][(w >> 8) & 0xffu] ^
           t[ahead - 2][(w >> 16) & 0xffu] ^ t[ahead - 3][w >> 24];
  };
  std::uint32_t crc = 0xffffffffu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  if (n >= 64 && detail::crc32_clmul_available()) {
    const std::size_t bulk = n & ~std::size_t{15};
    crc = detail::crc32_clmul(p, bulk, crc);
    p += bulk;
    n -= bulk;
  }
  for (; n >= 16; p += 16, n -= 16) {
    crc = fold(detail::load_le32(p) ^ crc, 15) ^
          fold(detail::load_le32(p + 4), 11) ^
          fold(detail::load_le32(p + 8), 7) ^
          fold(detail::load_le32(p + 12), 3);
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

/// Stores little-endian primitives into bytes already grown for them (see
/// ByteWriter::run): the same encodings as ByteWriter's field calls, with
/// no per-field growth, for a group of fields whose total width is fixed.
class ByteCursor {
 public:
  explicit ByteCursor(std::uint8_t* p) noexcept : p_(p) {}

  void u8(std::uint8_t v) noexcept { *p_++ = v; }

  void u32(std::uint32_t v) noexcept {
    detail::store_le32(p_, v);
    p_ += sizeof(v);
  }

  void u64(std::uint64_t v) noexcept {
    detail::store_le64(p_, v);
    p_ += sizeof(v);
  }

  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }

  void f64_block(std::span<const double> values) noexcept {
    p_ = detail::store_f64s(p_, values);
  }

 private:
  std::uint8_t* p_;
};

/// Appends little-endian primitives to a growing byte buffer. Every call
/// grows the buffer once, by the call's full width, then stores into it.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::vector<std::uint8_t>& sink) : out_(&sink) {}

  void u8(std::uint8_t v) { *extend(1) = v; }

  void u32(std::uint32_t v) { detail::store_le32(extend(4), v); }

  void u64(std::uint64_t v) { detail::store_le64(extend(8), v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// IEEE-754 bit pattern, so -0.0, NaN payloads and every denormal round
  /// trip exactly.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Grows the buffer once by `n` bytes for a fixed-width group of fields
  /// the caller then stores through the cursor; it must store exactly `n`.
  [[nodiscard]] ByteCursor run(std::size_t n) { return ByteCursor(extend(n)); }

  void bytes(std::span<const std::uint8_t> data) {
    std::copy(data.begin(), data.end(), extend(data.size()));
  }

  /// Length-prefixed string (u64 length + raw bytes).
  void str(std::string_view s) {
    u64(s.size());
    std::copy(s.begin(), s.end(), extend(s.size()));
  }

  /// A run of doubles, bit patterns back to back with no length prefix.
  void f64_block(std::span<const double> values) {
    detail::store_f64s(extend(values.size() * sizeof(double)), values);
  }

  void f64_span(std::span<const double> values) {
    u64(values.size());
    f64_block(values);
  }

  /// Patches a previously written u64 at `offset` (section length fixup
  /// after the payload is known).
  void patch_u64(std::size_t offset, std::uint64_t v) {
    detail::store_le64(out_->data() + offset, v);
  }

 private:
  /// Grows the buffer by `n` bytes and returns where they start.
  std::uint8_t* extend(std::size_t n) {
    const std::size_t at = out_->size();
    out_->resize(at + n);
    return out_->data() + at;
  }

  std::vector<std::uint8_t>* out_ = nullptr;
};

/// Bounds-checked little-endian reader over a fixed byte span. Every read
/// checks its full width once and throws SerialError(kTruncated) rather
/// than walking off the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

  std::uint8_t u8() { return *take(1); }

  std::uint32_t u32() { return detail::load_le32(take(4)); }

  std::uint64_t u64() { return detail::load_le64(take(8)); }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() { return std::bit_cast<double>(u64()); }

  bool boolean() { return u8() != 0; }

  /// A length that must fit in the remaining bytes, with each element
  /// occupying at least `element_size` bytes — validated BEFORE the caller
  /// allocates, so a corrupt length cannot drive a huge reserve.
  std::size_t length(std::size_t element_size = 1) {
    const std::uint64_t n = u64();
    if (element_size != 0 && n > remaining() / element_size) {
      throw SerialError(SerialError::Code::kTruncated,
                        "serial: length prefix exceeds remaining bytes");
    }
    return static_cast<std::size_t>(n);
  }

  std::span<const std::uint8_t> bytes(std::size_t n) { return {take(n), n}; }

  std::string str() {
    const std::size_t n = length();
    const std::span<const std::uint8_t> raw = bytes(n);
    return {reinterpret_cast<const char*>(raw.data()), raw.size()};
  }

  /// Fills `values` from a run of doubles written by
  /// ByteWriter::f64_block.
  void f64_block(std::span<double> values) {
    detail::load_f64s(take(values.size() * sizeof(double)), values);
  }

  std::vector<double> f64_vec() {
    std::vector<double> out(length(sizeof(double)));
    f64_block(out);
    return out;
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) {
      throw SerialError(SerialError::Code::kTruncated,
                        "serial: read past end of snapshot buffer");
    }
  }

  /// Bounds-checks and consumes `n` bytes; returns where they start.
  const std::uint8_t* take(std::size_t n) {
    need(n);
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// FNV-1a over raw bytes — the compatibility-hash primitive detectors use
/// to fingerprint their configuration/parameters in a snapshot.
[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                         std::uint64_t seed =
                                             0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s,
                                         std::uint64_t seed =
                                             0xcbf29ce484222325ULL) noexcept {
  return fnv1a(
      {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, seed);
}

[[nodiscard]] inline std::uint64_t fnv1a(std::span<const double> values,
                                         std::uint64_t seed =
                                             0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (const double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(bits >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace valkyrie::util
