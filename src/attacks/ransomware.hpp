// Ransomware workload family — Fig. 6b and the Fig. 1 training corpus.
//
// Models the encryptor loop the paper's 67 open-source samples share: walk
// the victim's file tree, read each file, encrypt, write back. Progress =
// bytes encrypted, accounted arithmetically. Resource dependence: CPU share
// bounds the cipher throughput, the file-access rate bounds file turnover,
// memory pressure thrashes both — mirroring the two actuators the paper
// evaluates (CPU: 11.67 MB/s -> ~152 KB/s; file rate 7 -> 1 files/epoch:
// -> 1.5 MB/s).
//
// The model costs only what its observables need. Each epoch reads a slice
// of plaintext — one byte drawn from the per-process stream per slice byte
// — because the HPC sample drawn after it reads the same stream, and it
// advances the serialized nonce counter. No observable reads ciphertext, so
// no cipher runs and no buffer is allocated.
#pragma once

#include <memory>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/workload.hpp"

namespace valkyrie::attacks {

/// Largest per-epoch plaintext slice (max_real_crypt_bytes) a config may
/// ask for: 128 KiB, twice the default and only in-tree value. Each slice
/// byte is one draw.
inline constexpr std::size_t kMaxRealCryptBytes = std::size_t{1} << 17;

struct RansomwareConfig {
  std::string name = "ransomware";
  /// Peak encryption throughput, CPU-bound (paper: 11.67 MB/s).
  double cpu_bytes_per_second = 11.67e6;
  /// Files opened per epoch at the default file-access rate (paper: 7).
  double files_per_epoch = 7.0;
  /// Mean victim file size. 7 files/epoch * ~166 kB ~ 11.6 MB/s at 100 ms
  /// epochs, making CPU and filesystem near-balanced by default.
  double mean_file_bytes = 166.0e3;
  /// Plaintext slice read per epoch, at most this many bytes (one draw from
  /// the per-process stream per byte); the rest of the epoch's bytes are
  /// accounted arithmetically. At most kMaxRealCryptBytes.
  std::size_t max_real_crypt_bytes = 1 << 16;
  /// Per-family signature jitter (the 67 samples differ slightly).
  double family_jitter = 0.0;
  /// Probability an epoch is a directory-scan phase rather than bulk
  /// encryption: file-system walking with little cipher compute, which per
  /// epoch is easily confused with benign indexing/backup I/O — the other
  /// half of the Fig. 1 single-measurement ambiguity.
  double scan_phase_prob = 0.35;
  std::uint64_t seed = 0xf11e;
};

class RansomwareAttack final : public sim::Workload {
 public:
  /// Throws std::invalid_argument unless cpu_bytes_per_second and
  /// files_per_epoch are finite and >= 0, mean_file_bytes is finite and
  /// > 0, and max_real_crypt_bytes <= kMaxRealCryptBytes
  /// (WorkloadRegistry::load reports a payload carrying such a config as
  /// SerialError{kMalformed}).
  explicit RansomwareAttack(RansomwareConfig config = {});

  [[nodiscard]] std::string_view name() const override { return config_.name; }
  [[nodiscard]] bool is_attack() const override { return true; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "bytes encrypted";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override;
  [[nodiscard]] double total_progress() const override {
    return bytes_encrypted_;
  }

  [[nodiscard]] double files_encrypted() const noexcept {
    return files_encrypted_;
  }

  [[nodiscard]] std::string_view snapshot_type() const override {
    return "attack.ransomware";
  }
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<sim::Workload> snapshot_load(util::ByteReader& in);

 private:
  RansomwareConfig config_;
  hpc::HpcSignature signature_;
  hpc::HpcSignature scan_signature_;
  double bytes_encrypted_ = 0.0;
  double files_encrypted_ = 0.0;
  std::uint64_t nonce_counter_ = 0;
};

/// The paper's corpus: 67 samples drawn from five open-source families
/// (GonnaCry, BWare, RAASNet, Randomware, WannaCry-profile), with per-sample
/// rate and signature variation.
[[nodiscard]] std::vector<RansomwareConfig> ransomware_corpus(
    std::uint64_t seed = 0x67);

}  // namespace valkyrie::attacks
