// Cryptominer workload — Fig. 6c. A double-SHA-256 proof-of-work search
// (Bitcoin-style): per epoch it grinds nonces, counting hashes and any
// nonce whose digest clears the difficulty target. Entirely CPU-bound, so
// the CPU actuator alone throttles it (paper: 99.04% average slowdown in
// the suspicious state).
#pragma once

#include <memory>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "sim/workload.hpp"

namespace valkyrie::attacks {

/// Largest real_hashes_per_epoch a config may ask for: 4096 double SHA-256
/// hashes per epoch, twice the largest in-tree value (2048; the default is
/// 512).
inline constexpr int kMaxRealHashesPerEpoch = 1 << 12;
/// Largest modelled hash rate, 1e12 hashes/s: it sizes no work (only the
/// real slice does), but keeps the extrapolated share count, at most the
/// epoch's hashes, far inside the uint64 range it is converted to.
inline constexpr double kMaxHashesPerSecond = 1e12;

struct CryptominerConfig {
  std::string name = "cryptominer";
  /// Hash throughput at full CPU share (model hashes per second).
  double hashes_per_second = 1.8e6;
  /// Real double-SHA-256 invocations per epoch (the remainder of the
  /// accounted hash count follows the same loop, just not all executed).
  int real_hashes_per_epoch = 512;
  /// Difficulty: leading zero bits for a share to count as found.
  int difficulty_bits = 18;
  double family_jitter = 0.0;
  std::uint64_t seed = 0xc01;
};

class CryptominerAttack final : public sim::Workload {
 public:
  /// Throws std::invalid_argument unless hashes_per_second is in
  /// [0, kMaxHashesPerSecond], real_hashes_per_epoch in
  /// [0, kMaxRealHashesPerEpoch] and difficulty_bits in [0, 256].
  /// (WorkloadRegistry::load reports a payload carrying such a config as
  /// SerialError{kMalformed}).
  explicit CryptominerAttack(CryptominerConfig config = {});

  [[nodiscard]] std::string_view name() const override { return config_.name; }
  [[nodiscard]] bool is_attack() const override { return true; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "hashes computed";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override;
  [[nodiscard]] double total_progress() const override { return hashes_; }

  [[nodiscard]] std::uint64_t shares_found() const noexcept {
    return shares_found_;
  }

  [[nodiscard]] std::string_view snapshot_type() const override {
    return "attack.cryptominer";
  }
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<sim::Workload> snapshot_load(util::ByteReader& in);

 private:
  CryptominerConfig config_;
  hpc::HpcSignature signature_;
  double hashes_ = 0.0;
  std::uint64_t shares_found_ = 0;
  std::uint64_t nonce_ = 0;
};

/// A small corpus of miner variants (different pools/coins tune loop shape).
[[nodiscard]] std::vector<CryptominerConfig> cryptominer_corpus(
    std::uint64_t seed = 0x52);

}  // namespace valkyrie::attacks
