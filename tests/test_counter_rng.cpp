// Counter-mode RNG contract (PR 9): a draw is a pure function of (stream
// seed, epoch, draw index) — never of draw history — so per-slot streams
// can be rebased at every epoch boundary and replayed from any point.
// Covers the generator itself (purity, rebasing, distribution sanity, fork
// independence), the snapshot round-trip of a counter-mode system (image
// v4 carries the mode), and cross-worker-count determinism of a
// counter-mode engine run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/svm.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie {
namespace {

// --- Generator-level contract ------------------------------------------------

TEST(CounterRng, DrawIsPureFunctionOfSeedEpochIndex) {
  util::Rng a = util::Rng::counter_stream(0xabcd);
  util::Rng b = util::Rng::counter_stream(0xabcd);
  // Identical fresh streams agree draw for draw.
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(b(), first[static_cast<size_t>(i)]);

  // Rebasing to an epoch is position-independent: however many draws each
  // stream consumed before, (seed, epoch, index) fully determines a value.
  a.set_epoch(7);
  util::Rng c = util::Rng::counter_stream(0xabcd);
  for (int i = 0; i < 100; ++i) (void)c();  // arbitrary history
  c.set_epoch(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), c());

  // Different epochs and different seeds give different streams.
  util::Rng d = util::Rng::counter_stream(0xabcd);
  d.set_epoch(8);
  util::Rng e = util::Rng::counter_stream(0xabce);
  e.set_epoch(7);
  a.set_epoch(7);
  bool epoch_differs = false;
  bool seed_differs = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t v = a();
    epoch_differs |= d() != v;
    seed_differs |= e() != v;
  }
  EXPECT_TRUE(epoch_differs);
  EXPECT_TRUE(seed_differs);
}

TEST(CounterRng, SetEpochIsIgnoredInXoshiroMode) {
  util::Rng a(0x1234);
  util::Rng b(0x1234);
  b.set_epoch(99);  // must be a no-op: xoshiro streams are history-based
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a(), b());
}

TEST(CounterRng, ForkedCounterStreamIsIndependent) {
  util::Rng parent = util::Rng::counter_stream(0x77);
  util::Rng child = parent.fork();
  EXPECT_TRUE(child.counter_mode());
  // The fork consumed one parent draw; child draws must not replay the
  // parent's stream.
  util::Rng reference = util::Rng::counter_stream(0x77);
  (void)reference();  // align with parent position
  bool differs = false;
  for (int i = 0; i < 16; ++i) differs |= child() != reference();
  EXPECT_TRUE(differs);
}

TEST(CounterRng, NormalBatchIsBitIdenticalToScalarDraws) {
  // The vectorized batch kernel must be indistinguishable from n scalar
  // normal() calls — same uniforms, same polynomial, same tail handling,
  // same final stream position — in both modes and across chunk
  // boundaries (the kernel works in chunks of 64).
  for (const bool counter : {true, false}) {
    util::Rng scalar =
        counter ? util::Rng::counter_stream(0xbeef) : util::Rng(0xbeef);
    util::Rng batched = scalar;
    if (counter) {
      scalar.set_epoch(3);
      batched.set_epoch(3);
    }
    for (const std::size_t n : {1u, 13u, 64u, 200u}) {
      std::vector<double> got(n);
      batched.normal_batch(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], scalar.normal())
            << "counter=" << counter << " n=" << n << " i=" << i;
      }
    }
    // Positions stayed in lockstep through all the batches.
    EXPECT_EQ(batched.normal(), scalar.normal()) << "counter=" << counter;
  }
}

TEST(CounterRng, DistributionSanity) {
  util::Rng rng = util::Rng::counter_stream(0xd157);
  constexpr int kDraws = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);

  // Inverse-CDF normal: first two moments and symmetric tails.
  double nsum = 0.0;
  double nsum_sq = 0.0;
  int above2 = 0;
  int below2 = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double n = rng.normal();
    ASSERT_TRUE(std::isfinite(n));
    nsum += n;
    nsum_sq += n * n;
    above2 += n > 2.0;
    below2 += n < -2.0;
  }
  const double nmean = nsum / kDraws;
  EXPECT_NEAR(nmean, 0.0, 0.02);
  EXPECT_NEAR(nsum_sq / kDraws - nmean * nmean, 1.0, 0.03);
  // P(|N| > 2) ~ 2.28% per side.
  EXPECT_NEAR(static_cast<double>(above2) / kDraws, 0.0228, 0.005);
  EXPECT_NEAR(static_cast<double>(below2) / kDraws, 0.0228, 0.005);

  // below() stays in range and hits every residue of a small modulus.
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[rng.below(7)];
  for (const int h : hits) EXPECT_GT(h, 0);
}

// --- System / engine level ---------------------------------------------------

ml::TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  hpc::HpcSignature benign;
  benign.at(hpc::Event::kInstructions) = 3e8;
  benign.at(hpc::Event::kCycles) = 3.5e8;
  benign.at(hpc::Event::kL1dMisses) = 2e6;
  benign.at(hpc::Event::kLlcMisses) = 4e5;
  benign.at(hpc::Event::kMemBandwidth) = 5e7;
  hpc::HpcSignature attack;
  attack.at(hpc::Event::kInstructions) = 4e7;
  attack.at(hpc::Event::kCycles) = 3.5e8;
  attack.at(hpc::Event::kLlcMisses) = 4e7;
  attack.at(hpc::Event::kMemBandwidth) = 2e9;
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    for (int t = 0; t < 8; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name =
          (trace.malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 25; ++i) {
        trace.samples.push_back((label == 1 ? attack : benign).sample(rng));
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

/// Snapshot-supported spawn script, pure function of system state.
void scripted_spawn(sim::SimSystem& sys, core::ValkyrieEngine& engine) {
  const std::size_t ordinal = sys.total_spawned();
  const bool attack = ordinal % 6 == 1;
  std::unique_ptr<sim::Workload> workload;
  if (attack) {
    attacks::CryptominerConfig config;
    config.seed = 0xabc0 + ordinal;
    workload = std::make_unique<attacks::CryptominerAttack>(config);
  } else {
    static const std::vector<workloads::BenchmarkSpec> palette =
        workloads::all_single_threaded();
    workloads::BenchmarkSpec spec = palette[ordinal % palette.size()];
    spec.epochs_of_work =
        ordinal % 5 == 2 ? static_cast<double>(30 + ordinal % 20) : 1e9;
    workload = std::make_unique<workloads::BenchmarkWorkload>(std::move(spec));
  }
  const sim::ProcessId pid = sys.spawn(std::move(workload));
  if (ordinal % 7 != 3) {
    engine.attach(pid, core::ValkyrieConfig{},
                  std::make_unique<core::SchedulerWeightActuator>());
  }
}

void scripted_epoch(sim::SimSystem& sys, core::ValkyrieEngine& engine) {
  if (sys.current_epoch() % 29 == 12) scripted_spawn(sys, engine);
  if (sys.current_epoch() % 41 == 20) {
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      if (sys.is_live(pid) && !sys.workload(pid).is_attack()) {
        sys.kill(pid);
        break;
      }
    }
  }
  engine.step();
}

template <typename Detector>
std::vector<std::uint8_t> run_counter_engine(const Detector& detector,
                                             std::size_t threads) {
  sim::SimSystem sys;
  sys.enable_counter_rng();
  core::ValkyrieEngine engine(sys, detector, threads);
  for (int i = 0; i < 10; ++i) scripted_spawn(sys, engine);
  sys.reserve_history(110);
  for (int epoch = 0; epoch < 100; ++epoch) scripted_epoch(sys, engine);
  return snapshot::encode(snapshot::capture(engine));
}

TEST(CounterRng, EngineRunDeterministicAcrossWorkers) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const std::vector<std::uint8_t> want = run_counter_engine(detector, 1);
  ASSERT_FALSE(want.empty());
  for (const std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(want, run_counter_engine(detector, threads))
        << "threads " << threads;
  }
}

TEST(CounterRng, CounterModeChangesTheSimulatedRandomness) {
  // Opt-in means opt-in: the counter stream is a different randomness
  // source, so a counter run must NOT replay the xoshiro baseline.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem xoshiro;
  core::ValkyrieEngine engine_x(xoshiro, detector);
  sim::SimSystem counter;
  counter.enable_counter_rng();
  core::ValkyrieEngine engine_c(counter, detector);
  for (int i = 0; i < 4; ++i) {
    scripted_spawn(xoshiro, engine_x);
    scripted_spawn(counter, engine_c);
  }
  // The SVM reads no raw window, so the engines retain no history: compare
  // each epoch's newest samples instead.
  bool differs = false;
  for (int epoch = 0; epoch < 10; ++epoch) {
    engine_x.step();
    engine_c.step();
    for (const sim::ProcessId pid : xoshiro.live_processes()) {
      differs |= xoshiro.last_sample(pid).counts !=
                 counter.last_sample(pid).counts;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(CounterRng, SnapshotRoundTripContinuesByteIdentically) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);

  // Golden: uninterrupted counter-mode run to epoch 120.
  sim::SimSystem golden_sys;
  golden_sys.enable_counter_rng();
  core::ValkyrieEngine golden(golden_sys, detector, 2);
  for (int i = 0; i < 10; ++i) scripted_spawn(golden_sys, golden);
  golden_sys.reserve_history(130);
  for (int epoch = 0; epoch < 60; ++epoch) scripted_epoch(golden_sys, golden);
  const std::vector<std::uint8_t> mid =
      snapshot::encode(snapshot::capture(golden));
  for (int epoch = 0; epoch < 60; ++epoch) scripted_epoch(golden_sys, golden);
  const std::vector<std::uint8_t> want =
      snapshot::encode(snapshot::capture(golden));

  // Restored world: parse the mid-run bytes into a FRESH system (counter
  // mode NOT pre-armed — the image must carry it) and replay the tail.
  const snapshot::SnapshotImage image = snapshot::parse(mid);
  EXPECT_TRUE(image.system.counter_rng);
  sim::SimSystem sys2;
  core::ValkyrieEngine engine2(sys2, detector, 8);
  snapshot::restore(image, engine2, snapshot::RestoreContext{});
  EXPECT_TRUE(sys2.counter_rng_enabled());
  sys2.reserve_history(130);
  for (int epoch = 0; epoch < 60; ++epoch) scripted_epoch(sys2, engine2);
  EXPECT_EQ(want, snapshot::encode(snapshot::capture(engine2)));
}

}  // namespace
}  // namespace valkyrie
