// Google-benchmark microbenchmarks for the library's hot primitives: the
// substrate costs behind every reproduction experiment (cache accesses,
// crypto, DRAM activations, threat-index updates, the per-process HPC draw,
// detector inference, batch kernels and fitting, simulated epochs), and one
// engine step under churn across a live-process x worker-thread grid.
// End-to-end runs, with churn, checkpoints, faults and recovery, are
// perfbench/'s.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "attacks/pp_aes.hpp"
#include "attacks/ransomware.hpp"
#include "attacks/rowhammer.hpp"
#include "cache/cache.hpp"
#include "core/threat.hpp"
#include "core/traces.hpp"
#include "core/valkyrie.hpp"
#include "crypto/aes128.hpp"
#include "crypto/sha256.hpp"
#include "dram/dram.hpp"
#include "hpc/hpc.hpp"
#include "ml/dataset.hpp"
#include "ml/gbt.hpp"
#include "ml/mlp.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "ml/window_accumulator.hpp"
#include "sim/scenario.hpp"
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

// Two well-separated synthetic programs, a compute-bound benign one and a
// cache- and memory-thrashing attack, so the small detectors below stay
// quiet on the benign signature.
hpc::HpcSignature benign_signature() {
  hpc::HpcSignature sig;
  sig.at(hpc::Event::kInstructions) = 3e8;
  sig.at(hpc::Event::kCycles) = 3.5e8;
  sig.at(hpc::Event::kL1dMisses) = 2e6;
  sig.at(hpc::Event::kLlcMisses) = 4e5;
  sig.at(hpc::Event::kMemBandwidth) = 5e7;
  return sig;
}

hpc::HpcSignature attack_signature() {
  hpc::HpcSignature sig;
  sig.at(hpc::Event::kInstructions) = 4e7;
  sig.at(hpc::Event::kCycles) = 3.5e8;
  sig.at(hpc::Event::kL1dMisses) = 6e7;
  sig.at(hpc::Event::kLlcMisses) = 4e7;
  sig.at(hpc::Event::kMemBandwidth) = 2e9;
  return sig;
}

// The HPC draw inside every workload's run_epoch, from a per-slot xoshiro
// stream and from a counter stream.
void BM_SignatureSample(benchmark::State& state, bool counter) {
  const hpc::HpcSignature sig = benign_signature();
  util::Rng rng =
      counter ? util::Rng::counter_stream(0x1234) : util::Rng(0x1234);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.sample(rng));
  }
}
BENCHMARK_CAPTURE(BM_SignatureSample, xoshiro, false);
BENCHMARK_CAPTURE(BM_SignatureSample, counter, true);

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

// One ScenarioDriver::step() on fleet_steady's shape, the palette under
// churn with the GBT perfbench trains, at <live> processes and <threads>
// engine workers. Wall time, because the pool's shards run off the timing
// thread; items/s reads as proc-epochs/s, and `shards` is the worker count
// after the engine's clamp to the machine's cores.
void BM_EngineStep(benchmark::State& state) {
  static const ml::GbtDetector detector =
      ml::GbtDetector::make(perfbench_training_set());
  const auto live = static_cast<std::size_t>(state.range(0));
  sim::ScenarioScript script;
  script.initial_processes = live;
  script.mean_lifetime = 512.0;
  script.arrival_rate = static_cast<double>(live) / script.mean_lifetime;
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector,
                              static_cast<std::size_t>(state.range(1)));
  sim::ScenarioDriver driver(engine, std::move(script));
  // perfbench's reservation for a 320-epoch pass, then its 8 warm-up epochs.
  const std::size_t expected = driver.expected_processes(320);
  sys.reserve(expected);
  engine.reserve(expected);
  driver.reserve(expected);
  for (int e = 0; e < 8; ++e) driver.step();
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["shards"] = static_cast<double>(engine.shard_count());
}
BENCHMARK(BM_EngineStep)
    ->ArgsProduct({{8, 64, 1024, 4096, 65536}, {1, 2, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// A small separable corpus: 8 traces of 30 samples from each signature.
ml::TraceSet small_corpus() {
  util::Rng rng(0x5ca1e);
  ml::TraceSet set;
  for (const bool malicious : {false, true}) {
    const hpc::HpcSignature sig =
        malicious ? attack_signature() : benign_signature();
    for (int t = 0; t < 8; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = malicious;
      trace.name = (malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 30; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

// Each detector family trained on small_corpus(), on first use.
const ml::Detector& small_detector(std::string_view family) {
  static const ml::TraceSet corpus = small_corpus();
  if (family == "mlp") {
    static const ml::MlpDetector mlp =
        ml::MlpDetector::make_small_ann(corpus, 0x5eed);
    return mlp;
  }
  if (family == "svm") {
    static const ml::SvmDetector svm = ml::SvmDetector::make(corpus, 3);
    return svm;
  }
  if (family == "gbt") {
    static const ml::GbtDetector gbt = ml::GbtDetector::make(corpus);
    return gbt;
  }
  static const ml::StatisticalDetector stat = [] {
    ml::StatisticalDetector d;
    d.fit(ml::flatten(corpus));
    return d;
  }();
  return stat;
}

// A populated feature plane over n processes (every fourth on the attack
// signature, windows of 8-31 samples) and each column's WindowSummary.
struct BatchPlane {
  std::size_t n = 0;
  std::size_t stride = 0;
  std::vector<double> plane;  // [newest | mean | stddev] x stride
  std::vector<std::size_t> counts;
  std::vector<ml::WindowSummary> summaries;

  [[nodiscard]] ml::SummaryMatrixView view() const {
    ml::SummaryMatrixView v;
    v.newest = plane.data();
    v.mean = plane.data() + hpc::kFeatureDim * stride;
    v.stddev = plane.data() + 2 * hpc::kFeatureDim * stride;
    v.counts = counts.data();
    v.count = n;
    v.stride = stride;
    return v;
  }
};

BatchPlane make_batch_plane(std::size_t n) {
  util::Rng rng(0x91a9e);
  BatchPlane bp;
  bp.n = n;
  bp.stride = (n + 7) / 8 * 8;
  bp.plane.assign(3 * hpc::kFeatureDim * bp.stride, 0.0);
  bp.counts.assign(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    const hpc::HpcSignature sig =
        c % 4 == 1 ? attack_signature() : benign_signature();
    ml::WindowAccumulator acc;
    const std::size_t len = 8 + rng.below(24);
    for (std::size_t i = 0; i < len; ++i) acc.add(sig.sample(rng));
    double* col = bp.plane.data() + c;
    acc.store_plane_column(col, col + hpc::kFeatureDim * bp.stride,
                           col + 2 * hpc::kFeatureDim * bp.stride, bp.stride);
    bp.counts[c] = acc.count();
    bp.summaries.push_back(acc.summary());
  }
  return bp;
}

// One detector's verdicts over a batch of n processes: per column through
// the scalar path, or as the one call the engine's batch route makes per
// shard. A vote detector is served by its measurement votes and the rest
// by window inference, as the engine routes them.
void BM_BatchInfer(benchmark::State& state, std::string_view family,
                   bool batch) {
  const ml::Detector& detector = small_detector(family);
  const auto n = static_cast<std::size_t>(state.range(0));
  const BatchPlane plane = make_batch_plane(n);
  const ml::SummaryMatrixView view = plane.view();
  const bool by_vote = detector.vote_fraction().has_value();
  std::vector<std::uint8_t> votes(n);
  std::vector<ml::Inference> inferences(n);
  for (auto _ : state) {
    if (batch && by_vote) {
      detector.measurement_votes(view.newest_view(), votes);
    } else if (batch) {
      detector.infer_batch(view, inferences);
    } else if (by_vote) {
      for (std::size_t c = 0; c < n; ++c) {
        votes[c] = detector.measurement_vote(plane.summaries[c].newest);
      }
    } else {
      for (std::size_t c = 0; c < n; ++c) {
        inferences[c] = detector.infer(plane.summaries[c]);
      }
    }
    benchmark::DoNotOptimize(votes.data());
    benchmark::DoNotOptimize(inferences.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// Registered as BM_BatchInfer/<detector>/<scalar|batch>/<batch size>.
[[maybe_unused]] const bool kBatchInferRegistered = [] {
  for (const char* family : {"mlp", "svm", "gbt", "stat"}) {
    for (const bool batch : {false, true}) {
      const std::string name = std::string("BM_BatchInfer/") + family +
                               (batch ? "/batch" : "/scalar");
      benchmark::RegisterBenchmark(name.c_str(), BM_BatchInfer,
                                   std::string_view(family), batch)
          ->RangeMultiplier(16)
          ->Range(16, 4096);
    }
  }
  return true;
}();

// One palette program's epoch in a system of its own. The program never
// finishes, so every iteration steps it, and no raw history is kept, as
// under a detector with a batch kernel.
void BM_SimEpochBenchmarkWorkload(benchmark::State& state) {
  workloads::BenchmarkSpec spec = workloads::spec2017_rate()[0];
  spec.epochs_of_work = 1e18;
  sim::SimSystem sys;
  sys.set_history_window(0);
  sys.spawn(std::make_unique<workloads::BenchmarkWorkload>(std::move(spec)));
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
