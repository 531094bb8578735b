#include "attacks/ransomware.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "attacks/signatures.hpp"
#include "sim/resources.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace valkyrie::attacks {
namespace {

RansomwareConfig checked(RansomwareConfig c) {
  const auto refuse = [](const char* what) {
    throw std::invalid_argument(std::string("ransomware: ") + what);
  };
  const auto rate = [](double v) { return std::isfinite(v) && v >= 0.0; };
  if (!rate(c.cpu_bytes_per_second) || !rate(c.files_per_epoch)) {
    refuse("rates must be finite and >= 0");
  }
  if (!(std::isfinite(c.mean_file_bytes) && c.mean_file_bytes > 0.0)) {
    refuse("mean_file_bytes must be finite and > 0");
  }
  if (c.max_real_crypt_bytes > kMaxRealCryptBytes) {
    refuse("max_real_crypt_bytes exceeds kMaxRealCryptBytes");
  }
  return c;
}

}  // namespace

RansomwareAttack::RansomwareAttack(RansomwareConfig config)
    : config_(checked(std::move(config))),
      signature_(ransomware_signature(config_.family_jitter, config_.seed)),
      scan_signature_(
          ransomware_scan_signature(config_.family_jitter, config_.seed)) {}

sim::StepResult RansomwareAttack::run_epoch(const sim::ResourceShares& shares,
                                            sim::EpochContext& ctx) {
  const double epoch_s = ctx.epoch_ms / 1000.0;

  // Pipeline bound: cipher throughput (CPU) vs. file turnover (fs), both
  // degraded by memory thrashing.
  const double cpu_bytes = config_.cpu_bytes_per_second * epoch_s *
                           sim::cpu_progress_multiplier(shares.cpu);
  const double fs_bytes = config_.files_per_epoch *
                          sim::fs_progress_multiplier(shares.fs) *
                          config_.mean_file_bytes;
  const double bytes =
      std::min(cpu_bytes, fs_bytes) * sim::memory_progress_multiplier(shares.mem);

  // Read the plaintext slice: one draw per byte, because the HPC sample
  // below reads the same stream. Nothing reads the ciphertext, so the
  // cipher pass is not run; the nonce still advances, as it is serialized.
  const auto real_bytes = static_cast<std::size_t>(std::min<double>(
      bytes, static_cast<double>(config_.max_real_crypt_bytes)));
  if (real_bytes > 0) {
    for (std::size_t b = 0; b < real_bytes; ++b) (void)ctx.rng->below(256);
    ++nonce_counter_;
  }

  bytes_encrypted_ += bytes;
  files_encrypted_ += bytes / config_.mean_file_bytes;

  sim::StepResult out;
  out.progress = bytes;
  const double activity = std::clamp(
      bytes / (config_.cpu_bytes_per_second * epoch_s), 0.0, 1.0);
  const bool scan_phase = ctx.rng->chance(config_.scan_phase_prob);
  out.hpc = (scan_phase ? scan_signature_ : signature_)
                .sample(*ctx.rng, activity, ctx.hpc_noise);
  return out;
}

std::vector<RansomwareConfig> ransomware_corpus(std::uint64_t seed) {
  struct Family {
    const char* name;
    int samples;
    double rate_mb_s;   // family base encryption rate
    double jitter;
  };
  // 67 samples across the five repositories the paper cites.
  // Jitter reflects how differently the open-source families behave: the
  // samples inside one repo share a loop but differ in language/runtime,
  // I/O strategy and target file mix.
  static constexpr Family kFamilies[] = {
      {"gonnacry", 18, 11.67, 0.25}, {"bware", 14, 9.5, 0.30},
      {"raasnet", 14, 13.2, 0.25},   {"randomware", 12, 8.1, 0.35},
      {"wannacry-profile", 9, 12.4, 0.22},
  };
  util::Rng rng(seed);
  std::vector<RansomwareConfig> corpus;
  for (const Family& family : kFamilies) {
    for (int i = 0; i < family.samples; ++i) {
      RansomwareConfig c;
      c.name = std::string(family.name) + "-" + std::to_string(i);
      c.cpu_bytes_per_second =
          family.rate_mb_s * 1e6 * std::exp(0.1 * rng.normal());
      c.files_per_epoch = 5.0 + rng.below(5);  // 5..9
      c.mean_file_bytes =
          c.cpu_bytes_per_second * 0.1 / c.files_per_epoch;  // balanced
      c.family_jitter = family.jitter;
      c.seed = rng();
      corpus.push_back(std::move(c));
    }
  }
  return corpus;
}

void RansomwareAttack::snapshot_save(util::ByteWriter& out) const {
  out.str(config_.name);
  out.f64(config_.cpu_bytes_per_second);
  out.f64(config_.files_per_epoch);
  out.f64(config_.mean_file_bytes);
  out.u64(config_.max_real_crypt_bytes);
  out.f64(config_.family_jitter);
  out.f64(config_.scan_phase_prob);
  out.u64(config_.seed);
  out.f64(bytes_encrypted_);
  out.f64(files_encrypted_);
  out.u64(nonce_counter_);
}

std::unique_ptr<sim::Workload> RansomwareAttack::snapshot_load(
    util::ByteReader& in) {
  RansomwareConfig config;
  config.name = in.str();
  config.cpu_bytes_per_second = in.f64();
  config.files_per_epoch = in.f64();
  config.mean_file_bytes = in.f64();
  config.max_real_crypt_bytes = static_cast<std::size_t>(in.u64());
  config.family_jitter = in.f64();
  config.scan_phase_prob = in.f64();
  config.seed = in.u64();
  auto out = std::make_unique<RansomwareAttack>(std::move(config));
  out->bytes_encrypted_ = in.f64();
  out->files_encrypted_ = in.f64();
  out->nonce_counter_ = in.u64();
  return out;
}

}  // namespace valkyrie::attacks
