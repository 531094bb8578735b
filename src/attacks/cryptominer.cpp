#include "attacks/cryptominer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "attacks/signatures.hpp"
#include "sim/resources.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace valkyrie::attacks {
namespace {

CryptominerConfig checked(CryptominerConfig c) {
  const auto refuse = [](const char* what) {
    throw std::invalid_argument(std::string("cryptominer: ") + what);
  };
  if (!(c.hashes_per_second >= 0.0 &&
        c.hashes_per_second <= kMaxHashesPerSecond)) {
    refuse("hashes_per_second must be in [0, kMaxHashesPerSecond]");
  }
  if (c.real_hashes_per_epoch < 0 ||
      c.real_hashes_per_epoch > kMaxRealHashesPerEpoch) {
    refuse("real_hashes_per_epoch must be in [0, kMaxRealHashesPerEpoch]");
  }
  if (c.difficulty_bits < 0 || c.difficulty_bits > 256) {
    refuse("difficulty_bits must be in [0, 256]");
  }
  return c;
}

}  // namespace

CryptominerAttack::CryptominerAttack(CryptominerConfig config)
    : config_(checked(std::move(config))),
      signature_(cryptominer_signature(config_.family_jitter, config_.seed)) {}

sim::StepResult CryptominerAttack::run_epoch(const sim::ResourceShares& shares,
                                             sim::EpochContext& ctx) {
  const double epoch_s = ctx.epoch_ms / 1000.0;
  const double s = sim::cpu_progress_multiplier(shares.cpu) *
                   sim::memory_progress_multiplier(shares.mem);
  const double hashes = config_.hashes_per_second * epoch_s * s;

  // Grind a real slice of the nonce space with double SHA-256; shares found
  // in the slice are extrapolated by the accounted/real ratio.
  // (Compared as doubles first, so a high rate never reaches the cast.)
  const int real = hashes < config_.real_hashes_per_epoch
                       ? static_cast<int>(std::ceil(hashes))
                       : config_.real_hashes_per_epoch;
  // The header is zero but for the nonce in bytes 72..79, so its first
  // 64-byte block is the same for every nonce: it is absorbed once, and each
  // nonce finishes a copy of that state (two compressions, not three).
  std::uint64_t found_in_slice = 0;
  std::uint8_t header[80] = {};
  crypto::Sha256 midstate;
  midstate.update({header, 64});
  for (int i = 0; i < real; ++i) {
    ++nonce_;
    for (int b = 0; b < 8; ++b) {
      header[72 + b] = static_cast<std::uint8_t>(nonce_ >> (8 * b));
    }
    crypto::Sha256 first = midstate;
    first.update({header + 64, 16});
    const crypto::Sha256Digest inner = first.finish();
    const crypto::Sha256Digest digest =
        crypto::Sha256::hash({inner.data(), inner.size()});
    if (crypto::leading_zero_bits(digest) >= config_.difficulty_bits) {
      ++found_in_slice;
    }
  }
  if (real > 0) {
    shares_found_ += static_cast<std::uint64_t>(
        std::round(static_cast<double>(found_in_slice) * hashes /
                   static_cast<double>(real)));
  }
  hashes_ += hashes;

  sim::StepResult out;
  out.progress = hashes;
  out.hpc = signature_.sample(*ctx.rng, std::max(s, 0.0), ctx.hpc_noise);
  return out;
}

std::vector<CryptominerConfig> cryptominer_corpus(std::uint64_t seed) {
  static constexpr const char* kVariants[] = {
      "xmrig-profile", "cgminer-profile", "webminer-profile",
      "coinhive-profile", "cpuminer-multi",
  };
  util::Rng rng(seed);
  std::vector<CryptominerConfig> corpus;
  int idx = 0;
  for (const char* variant : kVariants) {
    for (int i = 0; i < 4; ++i) {
      CryptominerConfig c;
      c.name = std::string(variant) + "-" + std::to_string(i);
      c.hashes_per_second = 1.8e6 * std::exp(0.15 * rng.normal());
      c.difficulty_bits = 16 + static_cast<int>(rng.below(6));
      c.family_jitter = 0.08;
      c.seed = rng();
      corpus.push_back(std::move(c));
      ++idx;
    }
  }
  (void)idx;
  return corpus;
}



void CryptominerAttack::snapshot_save(util::ByteWriter& out) const {
  out.str(config_.name);
  out.f64(config_.hashes_per_second);
  out.i64(config_.real_hashes_per_epoch);
  out.i64(config_.difficulty_bits);
  out.f64(config_.family_jitter);
  out.u64(config_.seed);
  out.f64(hashes_);
  out.u64(shares_found_);
  out.u64(nonce_);
}

std::unique_ptr<sim::Workload> CryptominerAttack::snapshot_load(
    util::ByteReader& in) {
  CryptominerConfig config;
  config.name = in.str();
  config.hashes_per_second = in.f64();
  const std::int64_t real_hashes = in.i64();
  const std::int64_t difficulty = in.i64();
  config.family_jitter = in.f64();
  config.seed = in.u64();
  // Checked before narrowing: a truncated value could land in range.
  if (!std::in_range<int>(real_hashes) || !std::in_range<int>(difficulty)) {
    throw util::SerialError(util::SerialError::Code::kMalformed,
                            "cryptominer: count out of range");
  }
  config.real_hashes_per_epoch = static_cast<int>(real_hashes);
  config.difficulty_bits = static_cast<int>(difficulty);
  auto out = std::make_unique<CryptominerAttack>(std::move(config));
  out->hashes_ = in.f64();
  out->shares_found_ = in.u64();
  out->nonce_ = in.u64();
  return out;
}



}  // namespace valkyrie::attacks
