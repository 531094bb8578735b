// Google-benchmark microbenchmarks for the library's hot primitives: the
// substrate costs behind every reproduction experiment (cache accesses,
// crypto, DRAM activations, threat-index updates, detector inference and
// fitting, simulated epochs). Engine steps and detector batch kernels are
// measured by bench/engine_scaling.cpp, end-to-end runs by perfbench/.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "attacks/pp_aes.hpp"
#include "attacks/ransomware.hpp"
#include "attacks/rowhammer.hpp"
#include "cache/cache.hpp"
#include "core/threat.hpp"
#include "core/traces.hpp"
#include "crypto/aes128.hpp"
#include "crypto/sha256.hpp"
#include "dram/dram.hpp"
#include "hpc/hpc.hpp"
#include "ml/gbt.hpp"
#include "ml/stat_detector.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"

namespace {

using namespace valkyrie;

void BM_CacheAccess(benchmark::State& state) {
  cache::Cache cache(cache::presets::l1d());
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(1 << 20)));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash({data.data(), data.size()}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

// One cryptominer nonce: a copy of the header's absorbed first block, the
// nonce block through the first hash, then the second hash.
void BM_MinerNonceHash(benchmark::State& state) {
  std::uint8_t header[80] = {};
  crypto::Sha256 midstate;
  midstate.update({header, 64});
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    ++nonce;
    for (int b = 0; b < 8; ++b) {
      header[72 + b] = static_cast<std::uint8_t>(nonce >> (8 * b));
    }
    crypto::Sha256 first = midstate;
    first.update({header + 64, 16});
    const crypto::Sha256Digest inner = first.finish();
    benchmark::DoNotOptimize(
        crypto::Sha256::hash({inner.data(), inner.size()}));
  }
}
BENCHMARK(BM_MinerNonceHash);

void BM_AesEncryptBlock(benchmark::State& state) {
  crypto::Aes128 aes(crypto::AesKey{1, 2, 3, 4, 5, 6, 7, 8});
  crypto::AesBlock block{};
  for (auto _ : state) {
    block = aes.encrypt_block(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_DramActivate(benchmark::State& state) {
  dram::Dram dram(dram::DramConfig{});
  std::uint32_t row = 4096;
  for (auto _ : state) {
    dram.activate(0, row);
    row ^= 2;  // alternate aggressors
  }
}
BENCHMARK(BM_DramActivate);

// One 1 ms rowhammer slice at full share: 20,000 double-sided activations
// with every disturbed row past the threshold, so each takes two draws. The
// refresh window is long enough that no slice leaves it.
void BM_DramHammerSlice(benchmark::State& state) {
  dram::DramConfig config;
  config.refresh_interval_ms = 1e9;
  dram::Dram dram(config);
  dram.hammer(0, 4095, 4097, 2 * config.disturbance_threshold + 2);
  for (auto _ : state) {
    dram.hammer(0, 4095, 4097, 20'000);
    benchmark::DoNotOptimize(dram.total_bit_flips());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          20'000);
}
BENCHMARK(BM_DramHammerSlice);

void BM_ThreatIndexUpdate(benchmark::State& state) {
  core::ThreatIndex threat;
  util::Rng rng(2);
  for (auto _ : state) {
    const auto inf = rng.chance(0.3) ? ml::Inference::kMalicious
                                     : ml::Inference::kBenign;
    benchmark::DoNotOptimize(threat.on_inference(inf));
  }
}
BENCHMARK(BM_ThreatIndexUpdate);

void BM_StatDetectorInfer(benchmark::State& state) {
  util::Rng rng(3);
  hpc::HpcSignature sig;
  for (double& m : sig.mean) m = 1e6;
  std::vector<ml::Example> examples;
  for (int i = 0; i < 200; ++i) {
    const hpc::FeatureVec f = hpc::to_features(sig.sample(rng));
    examples.push_back({{f.begin(), f.end()}, false});
  }
  ml::StatisticalDetector detector;
  detector.fit(examples);
  std::vector<hpc::HpcSample> window;
  for (int i = 0; i < 32; ++i) window.push_back(sig.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.infer({window.data(), window.size()}));
  }
}
BENCHMARK(BM_StatDetectorInfer);

// perfbench's training set (its train_detector's traces: every palette
// program for 20 epochs, 6 miners and 10 ransomware samples for 30, one
// rowhammer for 16; 2,036 measurements).
ml::TraceSet perfbench_training_set() {
  std::vector<core::WorkloadFactory> benign;
  for (const workloads::BenchmarkSpec& spec :
       workloads::all_single_threaded()) {
    benign.push_back(
        [spec] { return std::make_unique<workloads::BenchmarkWorkload>(spec); });
  }
  ml::TraceSet set = core::collect_traces(benign, 20);
  std::vector<core::WorkloadFactory> attacks;
  const auto miners = attacks::cryptominer_corpus(0x11);
  const auto ransomware = attacks::ransomware_corpus(0x22);
  for (std::size_t i = 0; i < 6; ++i) {
    const attacks::CryptominerConfig mc = miners[i * 5 % miners.size()];
    attacks.push_back(
        [mc] { return std::make_unique<attacks::CryptominerAttack>(mc); });
  }
  for (std::size_t i = 0; i < 10; ++i) {
    const attacks::RansomwareConfig rc =
        ransomware[i * 7 % ransomware.size()];
    attacks.push_back(
        [rc] { return std::make_unique<attacks::RansomwareAttack>(rc); });
  }
  for (ml::LabeledTrace& t :
       core::collect_traces(attacks, 30, {}, 0x99).traces) {
    set.traces.push_back(std::move(t));
  }
  attacks::RowhammerConfig rh;
  rh.dram_seed = 0x100;
  set.traces.push_back(core::collect_trace(
      std::make_unique<attacks::RowhammerAttack>(rh), 16, {}, 0x77));
  return set;
}

// The xgboost detector's fit as perfbench's set-up pays it: features from
// the traces, then 25 depth-2 trees. The traces are collected once, outside
// the timed loop.
void BM_GbtFit(benchmark::State& state) {
  const ml::TraceSet set = perfbench_training_set();
  for (auto _ : state) {
    ml::GbtDetector detector = ml::GbtDetector::make(set);
    benchmark::DoNotOptimize(detector);
  }
}
BENCHMARK(BM_GbtFit)->Unit(benchmark::kMillisecond);

void BM_SimEpochBenchmarkWorkload(benchmark::State& state) {
  sim::SimSystem sys;
  sys.spawn(std::make_unique<workloads::BenchmarkWorkload>(
      workloads::spec2017_rate()[0]));
  for (auto _ : state) {
    sys.run_epoch();
  }
}
BENCHMARK(BM_SimEpochBenchmarkWorkload);

void BM_PrimeProbeMeasurementEpoch(benchmark::State& state) {
  attacks::PrimeProbeAesAttack attack;
  util::Rng rng(4);
  sim::EpochContext ctx;
  ctx.rng = &rng;
  const sim::ResourceShares shares;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.run_epoch(shares, ctx));
  }
}
BENCHMARK(BM_PrimeProbeMeasurementEpoch);

}  // namespace

BENCHMARK_MAIN();
