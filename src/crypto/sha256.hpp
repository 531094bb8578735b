// SHA-256 (FIPS 180-4). Used by the cryptominer case study (proof-of-work
// search) and by the exfiltrator workload (file hashing). Blocks compress
// with the x86 SHA extensions where CPUID reports them, chosen once per
// process; the portable body is the only path on other CPUs and the
// reference the tests hold the hardware path to. Both give the same digest.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace valkyrie::crypto {

using Sha256Digest = std::array<std::uint8_t, 32>;

namespace detail {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into the eight
/// state words (a..h) at `state`, in portable C++.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// True when this CPU can run sha256_compress_ni (x86-64 with the SHA
/// extensions, SSSE3 and SSE4.1); decided once, at the first call.
[[nodiscard]] bool sha256_ni_available() noexcept;

/// The same compression with the SHA extensions' round and message-schedule
/// instructions. Pre: sha256_ni_available().
void sha256_compress_ni(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks) noexcept;

}  // namespace detail

/// Incremental SHA-256. update() may be called any number of times;
/// finish() returns the digest and leaves the object in a reusable,
/// re-initialised state. A copy carries the state absorbed so far, so a
/// common prefix can be hashed once and the copies finished separately.
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] Sha256Digest finish() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static Sha256Digest hash(std::span<const std::uint8_t> data) noexcept;

  /// Double SHA-256 as used by Bitcoin-style proof of work.
  [[nodiscard]] static Sha256Digest hash2(std::span<const std::uint8_t> data) noexcept;

 private:
  void compress(const std::uint8_t* data, std::size_t blocks) noexcept;

  std::array<std::uint32_t, 8> h_{};
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Lowercase hex rendering of a digest (for tests and logs).
[[nodiscard]] std::string to_hex(const Sha256Digest& digest);

/// Number of leading zero bits in the digest, the usual PoW difficulty measure.
[[nodiscard]] int leading_zero_bits(const Sha256Digest& digest) noexcept;

}  // namespace valkyrie::crypto
