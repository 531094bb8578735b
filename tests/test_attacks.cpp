#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "attacks/covert_channels.hpp"
#include "attacks/cryptominer.hpp"
#include "attacks/exfiltrator.hpp"
#include "attacks/l1i_rsa.hpp"
#include "attacks/pp_aes.hpp"
#include "attacks/ransomware.hpp"
#include "attacks/rowhammer.hpp"
#include "attacks/tsa_covert.hpp"
#include "util/serial.hpp"

namespace valkyrie::attacks {
namespace {

/// Runs a workload for `epochs` with a fixed CPU share; other shares 1.0.
double run_attack(sim::Workload& w, int epochs, double cpu_share,
                  std::uint64_t seed = 1) {
  util::Rng rng(seed);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  sim::ResourceShares shares;
  shares.cpu = cpu_share;
  for (int e = 0; e < epochs; ++e) {
    ctx.epoch = static_cast<std::uint64_t>(e);
    w.run_epoch(shares, ctx);
  }
  return w.total_progress();
}

// --- Exfiltrator (Table II) --------------------------------------------------

TEST(Exfiltrator, DefaultRateMatchesTableII) {
  ExfiltratorAttack attack;
  const double bytes = run_attack(attack, 10, 1.0);
  // Paper default: 225.7 KB/s -> 22.57 KB per 100 ms epoch.
  EXPECT_NEAR(bytes / 10.0, 22570.0, 2500.0);
  EXPECT_GT(attack.files_processed(), 0u);
  EXPECT_GT(attack.hashes_computed(), 0u);
}

TEST(Exfiltrator, CpuThrottlingProportional) {
  ExfiltratorAttack full;
  ExfiltratorAttack half;
  const double bytes_full = run_attack(full, 10, 1.0);
  const double bytes_half = run_attack(half, 10, 0.5);
  const double slowdown = 1.0 - bytes_half / bytes_full;
  // Table II: 50% CPU -> 45.2% slowdown. Our model gives ~51%.
  EXPECT_GT(slowdown, 0.35);
  EXPECT_LT(slowdown, 0.6);
}

TEST(Exfiltrator, ExtremeCpuThrottleNearlyStops) {
  ExfiltratorAttack full;
  ExfiltratorAttack starved;
  const double bytes_full = run_attack(full, 10, 1.0);
  const double bytes_starved = run_attack(starved, 10, 0.01);
  EXPECT_GT(1.0 - bytes_starved / bytes_full, 0.99);  // Table II: 99.7%
}

TEST(Exfiltrator, FsThrottlingProportional) {
  ExfiltratorAttack full;
  ExfiltratorAttack slowfs;
  util::Rng rng(2);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  sim::ResourceShares shares;
  for (int e = 0; e < 10; ++e) full.run_epoch(shares, ctx);
  shares.fs = 0.5;
  for (int e = 0; e < 10; ++e) slowfs.run_epoch(shares, ctx);
  const double slowdown = 1.0 - slowfs.total_progress() / full.total_progress();
  EXPECT_NEAR(slowdown, 0.5, 0.08);  // Table II: 49.6% at 50 files/s
}

TEST(Exfiltrator, MemoryThrottlingSharp) {
  ExfiltratorAttack full;
  ExfiltratorAttack squeezed;
  util::Rng rng(3);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  sim::ResourceShares shares;
  for (int e = 0; e < 5; ++e) full.run_epoch(shares, ctx);
  shares.mem = 0.936;
  for (int e = 0; e < 5; ++e) squeezed.run_epoch(shares, ctx);
  // Table II: 99.96% slowdown at 93.6% residency.
  EXPECT_GT(1.0 - squeezed.total_progress() / full.total_progress(), 0.999);
}

TEST(Exfiltrator, NetworkThrottlingMatchesPolicingShape) {
  ExfiltratorAttack full;
  ExfiltratorAttack capped;
  util::Rng rng(4);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  sim::ResourceShares shares;
  for (int e = 0; e < 5; ++e) full.run_epoch(shares, ctx);
  shares.net = 1e-3;
  for (int e = 0; e < 5; ++e) capped.run_epoch(shares, ctx);
  // Table II: 74.9% slowdown at a 1e-3 bandwidth cap.
  EXPECT_NEAR(1.0 - capped.total_progress() / full.total_progress(), 0.749,
              0.05);
}

// --- Prime+Probe AES (Fig. 4a) ----------------------------------------------

TEST(PrimeProbeAes, StartsAtMaximumEntropy) {
  PrimeProbeAesAttack attack;
  EXPECT_NEAR(attack.guessing_entropy(), 128.0, 1.0);
}

TEST(PrimeProbeAes, UnthrottledRecoversKeyNibble) {
  PrimeProbeAesAttack attack;
  run_attack(attack, 50, 1.0);
  // Fig. 4a: GE drops from 128 towards ~10 as the attack progresses.
  EXPECT_LT(attack.guessing_entropy(), 40.0);
  EXPECT_GT(attack.measurements(), 1400u);
}

TEST(PrimeProbeAes, ThrottledStaysUninformed) {
  // Fig. 4a with Valkyrie: a throttled spy's probes aggregate dozens of
  // encryptions each, so its candidate ranking is uninformed — the rank of
  // the true key is uniform (expected GE ~128, the paper reports 131),
  // where the unthrottled attack drives GE to ~8. Individual seeds
  // random-walk, so the assertion is statistical: mean GE across seeds
  // stays far above the broken-key regime and far above the unthrottled
  // attack on the same seeds.
  double throttled_total = 0.0;
  double unthrottled_total = 0.0;
  constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6};
  for (const std::uint64_t seed : kSeeds) {
    PrimeProbeAesAttack throttled;
    run_attack(throttled, 50, 0.03, seed);
    throttled_total += throttled.guessing_entropy();
    PrimeProbeAesAttack unthrottled;
    run_attack(unthrottled, 50, 1.0, seed);
    unthrottled_total += unthrottled.guessing_entropy();
  }
  const double throttled_mean = throttled_total / std::size(kSeeds);
  const double unthrottled_mean = unthrottled_total / std::size(kSeeds);
  EXPECT_GT(throttled_mean, 50.0);
  EXPECT_GT(throttled_mean, 3.0 * unthrottled_mean);
}

TEST(PrimeProbeAes, ProgressCountsMeasurements) {
  PrimeProbeAesAttack attack;
  run_attack(attack, 5, 1.0);
  EXPECT_DOUBLE_EQ(attack.total_progress(),
                   static_cast<double>(attack.measurements()));
  EXPECT_EQ(attack.progress_units(), "measurements");
  EXPECT_TRUE(attack.is_attack());
}

// --- L1I RSA (Fig. 4b) --------------------------------------------------------

TEST(L1iRsa, UnthrottledRecoversExponent) {
  L1iRsaAttack attack;
  run_attack(attack, 10, 1.0);
  EXPECT_LT(attack.bit_error_rate(), 0.05);
}

TEST(L1iRsa, ThrottledErrorRateNearHalf) {
  L1iRsaAttack attack;
  run_attack(attack, 10, 0.05);
  // Fig. 4b: error rate >= 50% — on par with random guessing.
  EXPECT_GE(attack.bit_error_rate(), 0.45);
}

TEST(L1iRsa, BaselineErrorIsHalf) {
  L1iRsaAttack attack;
  EXPECT_DOUBLE_EQ(attack.bit_error_rate(), 0.5);
}

// --- TSA covert channel (Fig. 4c) ---------------------------------------------

TEST(TsaCovert, SynchronizedChannelIsClean) {
  TsaCovertChannel channel;
  run_attack(channel, 10, 1.0);
  EXPECT_LT(channel.bit_error_rate(), 0.05);
  EXPECT_GT(channel.total_progress(), 10000.0);
}

TEST(TsaCovert, ThrottledChannelExceedsHalfError) {
  TsaCovertChannel channel;
  run_attack(channel, 10, 0.1);
  // Fig. 4c: error rate rises above 50%.
  EXPECT_GT(channel.bit_error_rate(), 0.5);
}

// --- Contention covert channels (Figs. 4d-f) -----------------------------------

TEST(CovertChannels, LlcTransmitsWhenUnthrottled) {
  ContentionCovertChannel channel(llc_covert_config());
  run_attack(channel, 10, 1.0);
  EXPECT_TRUE(channel.initialized());
  EXPECT_GT(channel.bits_received_correctly(), 1000u);
  EXPECT_LT(channel.bit_error_rate(), 0.1);
}

TEST(CovertChannels, ThrottledLlcTransmitsAlmostNothing) {
  ContentionCovertChannel full(llc_covert_config());
  ContentionCovertChannel throttled(llc_covert_config());
  run_attack(full, 10, 1.0);
  run_attack(throttled, 10, 0.05);
  EXPECT_LT(static_cast<double>(throttled.bits_received_correctly()),
            0.05 * static_cast<double>(full.bits_received_correctly()));
}

TEST(CovertChannels, TlbChannelWorks) {
  ContentionCovertChannel channel(tlb_covert_config());
  run_attack(channel, 10, 1.0);
  EXPECT_TRUE(channel.initialized());
  EXPECT_GT(channel.bits_received_correctly(), 500u);
}

TEST(CovertChannels, CjagInitCostGrowsWithChannels) {
  // Fig. 4d: more channels -> longer initialisation. Run both for a few
  // epochs and compare when they start transmitting.
  ContentionCovertChannel one(cjag_config(1));
  ContentionCovertChannel eight(cjag_config(8));
  int epochs_to_init_one = 0;
  int epochs_to_init_eight = 0;
  util::Rng rng1(5);
  util::Rng rng8(5);
  sim::EpochContext ctx1;
  ctx1.rng = &rng1;
  sim::EpochContext ctx8;
  ctx8.rng = &rng8;
  const sim::ResourceShares shares;
  for (int e = 0; e < 50; ++e) {
    if (!one.initialized()) {
      one.run_epoch(shares, ctx1);
      epochs_to_init_one = e + 1;
    }
    if (!eight.initialized()) {
      eight.run_epoch(shares, ctx8);
      epochs_to_init_eight = e + 1;
    }
  }
  EXPECT_TRUE(one.initialized());
  EXPECT_TRUE(eight.initialized());
  EXPECT_GT(epochs_to_init_eight, epochs_to_init_one);
}

TEST(CovertChannels, CjagThrottledDuringInitNeverTransmits) {
  ContentionCovertChannel channel(cjag_config(4));
  run_attack(channel, 20, 0.05);
  // Throttled before the jamming agreement completes: zero bits ever land.
  EXPECT_EQ(channel.bits_received_correctly(), 0u);
}

// --- Rowhammer (Fig. 6a) -------------------------------------------------------

TEST(Rowhammer, UnthrottledFlipsBits) {
  RowhammerAttack attack;
  run_attack(attack, 15, 1.0);
  EXPECT_GT(attack.dram().total_bit_flips(), 0u);
  EXPECT_GT(attack.hammer_iterations(), 0u);
}

TEST(Rowhammer, ThrottledBelowHammeringRateZeroFlips) {
  RowhammerAttack attack;
  run_attack(attack, 15, 0.05);
  // Fig. 6a: a throttled hammer never crosses the per-window disturbance
  // threshold -> zero flips -> 100% slowdown.
  EXPECT_EQ(attack.dram().total_bit_flips(), 0u);
  EXPECT_GT(attack.hammer_iterations(), 0u);  // it does run, futilely
}

TEST(Rowhammer, FlipsLandAdjacentToVictimRow) {
  RowhammerConfig cfg;
  RowhammerAttack attack(cfg);
  run_attack(attack, 15, 1.0);
  for (const dram::FlipRecord& flip : attack.dram().flips()) {
    EXPECT_GE(flip.row, cfg.victim_row - 2);
    EXPECT_LE(flip.row, cfg.victim_row + 2);
  }
}

// --- Ransomware (Fig. 6b) -------------------------------------------------------

TEST(Ransomware, DefaultEncryptionRateMatchesPaper) {
  RansomwareAttack attack;
  const double bytes = run_attack(attack, 10, 1.0);
  // 11.67 MB/s -> 1.167 MB per epoch.
  EXPECT_NEAR(bytes / 10.0, 1.167e6, 0.12e6);
}

TEST(Ransomware, CpuThrottleTo1PercentNearlyStops) {
  RansomwareAttack attack;
  const double bytes = run_attack(attack, 10, 0.01);
  // Paper: ~152 KB/s under the CPU actuator's floor; our CPU model gives
  // the same order (sub-proportional at tiny shares).
  const double rate_per_s = bytes / 1.0;  // 10 epochs = 1 s
  EXPECT_LT(rate_per_s, 300e3);
  EXPECT_GT(rate_per_s, 3e3);
}

TEST(Ransomware, FsThrottleCutsRateProportionally) {
  RansomwareAttack full;
  RansomwareAttack starved;
  util::Rng rng(6);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  sim::ResourceShares shares;
  for (int e = 0; e < 10; ++e) full.run_epoch(shares, ctx);
  shares.fs = 1.0 / 7.0;  // 7 files/epoch -> 1 file/epoch
  for (int e = 0; e < 10; ++e) starved.run_epoch(shares, ctx);
  // Paper: 11.67 MB/s -> ~1.5 MB/s.
  EXPECT_NEAR(starved.total_progress() / full.total_progress(), 1.0 / 7.0,
              0.04);
}

TEST(Ransomware, CorpusHas67DistinctSamples) {
  const std::vector<RansomwareConfig> corpus = ransomware_corpus();
  EXPECT_EQ(corpus.size(), 67u);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (std::size_t j = i + 1; j < corpus.size(); ++j) {
      EXPECT_NE(corpus[i].name, corpus[j].name);
    }
  }
}

// --- Cryptominer (Fig. 6c) ------------------------------------------------------

TEST(Cryptominer, HashRateScalesWithCpu) {
  CryptominerAttack full;
  CryptominerAttack throttled;
  const double h_full = run_attack(full, 10, 1.0);
  const double h_thr = run_attack(throttled, 10, 0.01);
  // Paper: 99.04% average slowdown in the suspicious state.
  EXPECT_GT(1.0 - h_thr / h_full, 0.99);
}

TEST(Cryptominer, FindsSharesAtLowDifficulty) {
  CryptominerConfig cfg;
  cfg.difficulty_bits = 8;  // 1 in 256 hashes
  cfg.real_hashes_per_epoch = 2048;
  CryptominerAttack attack(cfg);
  run_attack(attack, 5, 1.0);
  EXPECT_GT(attack.shares_found(), 0u);
}

// At 8 bits about 8 of an epoch's 2,048 real hashes clear the target, so
// the digests decide the share count: the test recounts each epoch's slice
// with Sha256::hash2 over the same nonces (a zero header carrying the
// little-endian nonce at byte 72) and extrapolates it as the model does.
TEST(Cryptominer, ShareCountFollowsTheDigests) {
  CryptominerConfig cfg;
  cfg.difficulty_bits = 8;
  cfg.real_hashes_per_epoch = 2048;
  CryptominerAttack attack(cfg);
  util::Rng rng(1);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  std::uint64_t nonce = 0;
  std::uint64_t want = 0;
  int partial_slices = 0;
  // The 1% share leaves fewer accounted hashes than real ones.
  for (const double cpu : {1.0, 0.37, 1.0, 0.01, 1.0, 1.0}) {
    sim::ResourceShares shares;
    shares.cpu = cpu;
    const double hashes = attack.run_epoch(shares, ctx).progress;
    const int real = hashes < cfg.real_hashes_per_epoch
                         ? static_cast<int>(std::ceil(hashes))
                         : cfg.real_hashes_per_epoch;
    std::uint64_t found = 0;
    for (int i = 0; i < real; ++i) {
      ++nonce;
      std::uint8_t header[80] = {};
      for (int b = 0; b < 8; ++b) {
        header[72 + b] = static_cast<std::uint8_t>(nonce >> (8 * b));
      }
      found += crypto::leading_zero_bits(crypto::Sha256::hash2({header, 80})) >=
               cfg.difficulty_bits;
    }
    ASSERT_GT(real, 0);
    partial_slices += real < cfg.real_hashes_per_epoch;
    want += static_cast<std::uint64_t>(std::round(
        static_cast<double>(found) * hashes / static_cast<double>(real)));
    ASSERT_EQ(attack.shares_found(), want) << "cpu share " << cpu;
    ++ctx.epoch;
  }
  EXPECT_GT(want, 0u);
  EXPECT_EQ(partial_slices, 1);
}

TEST(Cryptominer, CorpusVariantsDistinct) {
  const std::vector<CryptominerConfig> corpus = cryptominer_corpus();
  EXPECT_EQ(corpus.size(), 20u);
  EXPECT_NE(corpus[0].hashes_per_second, corpus[1].hashes_per_second);
}

// --- Bit pins ----------------------------------------------------------------
//
// Each attack model's observables over a fixed share schedule, folded into
// one FNV-1a hash: every epoch's HPC sample bits, progress and per-process
// RNG state, then the final snapshot payload (and, for the rowhammer, the
// flip log). The literals were recorded before the models were cut down to
// the work their observables need, so a restructuring that moves any bit
// fails here.

class Fnv1a {
 public:
  void u8(std::uint8_t b) noexcept {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Full share, partial CPU shares (on the 48.7 ns rowhammer below, whose
/// 1.3 ms slices never tile a 64 ms window, refresh windows change
/// mid-slice), the CPU actuator's floor, the fs floor, a memory cap and all
/// floors at once.
std::vector<sim::ResourceShares> pin_schedule() {
  const sim::ResourceShares full{};
  return {full,
          full,
          {0.37, 1.0, 1.0, 1.0},
          {0.37, 1.0, 1.0, 1.0},
          {0.01, 1.0, 1.0, 1.0},
          {1.0, 1.0, 1.0, 1.0 / 7.0},
          {1.0, 0.9, 1.0, 1.0},
          {0.62, 1.0, 1.0, 1.0},
          full,
          {0.01, 0.85, 1.0, 1.0 / 7.0},
          full};
}

/// Runs `w` over the pin schedule on its own stream and folds every
/// epoch's observables and the final snapshot payload into `hash`.
void hash_model_run(sim::Workload& w, std::uint64_t seed, Fnv1a& hash) {
  util::Rng rng(seed);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  std::uint64_t epoch = 0;
  for (const sim::ResourceShares& shares : pin_schedule()) {
    ctx.epoch = epoch++;
    const sim::StepResult step = w.run_epoch(shares, ctx);
    for (const double count : step.hpc.counts) hash.f64(count);
    hash.f64(step.progress);
    for (const std::uint64_t word : rng.state()) hash.u64(word);
  }
  std::vector<std::uint8_t> payload;
  util::ByteWriter writer(payload);
  w.snapshot_save(writer);
  hash.u64(payload.size());
  for (const std::uint8_t b : payload) hash.u8(b);
}

TEST(ModelPins, RowhammerBitsArePinned) {
  RowhammerConfig lower_edge;  // aggressor row 0, a non-integer tRC
  lower_edge.dram.banks = 2;
  lower_edge.dram.rows_per_bank = 16;
  lower_edge.dram.t_rc_ns = 48.7;
  lower_edge.victim_row = 1;
  lower_edge.bank = 1;
  lower_edge.slice_ms = 1.3;
  RowhammerConfig upper_edge;  // aggressor row rows-1, short windows
  upper_edge.dram.rows_per_bank = 16;
  upper_edge.dram.refresh_interval_ms = 10.0;
  upper_edge.victim_row = 14;
  upper_edge.bank = 5;
  upper_edge.dram_seed = 0x77;

  Fnv1a hash;
  std::vector<std::uint64_t> flips;
  for (const RowhammerConfig& config :
       {RowhammerConfig{}, lower_edge, upper_edge}) {
    RowhammerAttack attack(config);
    hash_model_run(attack, 0x51, hash);
    for (const dram::FlipRecord& flip : attack.dram().flips()) {
      hash.u64(flip.bank);
      hash.u64(flip.row);
      hash.u64(flip.window);
    }
    flips.push_back(attack.dram().total_bit_flips());
  }
  EXPECT_EQ(flips, (std::vector<std::uint64_t>{31, 26, 11}));
  EXPECT_EQ(hash.value(), 0xcd9df6415a7ce194ULL);
}

TEST(ModelPins, RansomwareBitsArePinned) {
  Fnv1a hash;
  for (const RansomwareConfig& config :
       {RansomwareConfig{}, ransomware_corpus()[23]}) {
    RansomwareAttack attack(config);
    hash_model_run(attack, 0x52, hash);
  }
  EXPECT_EQ(hash.value(), 0x9bc8bac222920c0aULL);
}

TEST(ModelPins, CryptominerBitsArePinned) {
  Fnv1a hash;
  for (const CryptominerConfig& config :
       {CryptominerConfig{}, cryptominer_corpus()[7]}) {
    CryptominerAttack attack(config);
    hash_model_run(attack, 0x53, hash);
  }
  EXPECT_EQ(hash.value(), 0x00a1c3a294d18364ULL);
}

}  // namespace
}  // namespace valkyrie::attacks
