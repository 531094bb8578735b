// Finite history-window contract: a process's history retains exactly the
// newest `window` raw samples in a fixed-size ring. Before the ring wraps
// it holds every sample; across a wrap the history_view() span pair reads
// the newest `window` samples oldest-first; the streaming window
// statistics never depend on the window (the accumulator folds every
// sample); shrinking trims to the newest samples and widening keeps them;
// and an engine whose detector declares a finite raw window
// (Detector::raw_window) is deterministic across worker counts and
// round-trips through a snapshot (rings linearized oldest-first)
// byte-identically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/stat_detector.hpp"
#include "sim/system.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie {
namespace {
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
  sig.at(hpc::Event::kLlcMisses) = 4e7;
  sig.at(hpc::Event::kMemBandwidth) = 2e9;
  return sig;
}

class SigWorkload final : public sim::Workload {
 public:
  explicit SigWorkload(hpc::HpcSignature sig) : sig_(sig) {}
  [[nodiscard]] std::string_view name() const override { return "sig"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    out.hpc = sig_.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    return out;
  }
  [[nodiscard]] double total_progress() const override { return 0.0; }

 private:
  hpc::HpcSignature sig_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_sample(const hpc::HpcSample& a, const hpc::HpcSample& b,
                        const char* what, std::size_t i) {
  EXPECT_EQ(a.counts, b.counts) << what << " sample " << i;
}

/// A bare system under a finite window, plus every sample each process
/// committed, recorded from last_sample() after each epoch — the oracle the
/// retained ring must be a suffix of.
struct RecordedSystem {
  sim::SimSystem sys;
  std::vector<sim::ProcessId> pids;
  std::vector<std::vector<hpc::HpcSample>> seen;

  explicit RecordedSystem(std::size_t window, int processes = 6) {
    sys.set_history_window(window);
    for (int i = 0; i < processes; ++i) {
      const hpc::HpcSignature sig =
          i % 3 == 1 ? attack_signature() : benign_signature();
      pids.push_back(sys.spawn(std::make_unique<SigWorkload>(sig)));
    }
    seen.resize(pids.size());
  }

  void run(int epochs) {
    for (int e = 0; e < epochs; ++e) {
      sys.run_epoch();
      for (std::size_t i = 0; i < pids.size(); ++i) {
        seen[i].push_back(sys.last_sample(pids[i]));
      }
    }
  }

  /// The retained view must be exactly the newest `n` recorded samples.
  void expect_view_is_suffix(std::size_t n, const char* what) const {
    for (std::size_t i = 0; i < pids.size(); ++i) {
      const sim::SimSystem::HistoryView view = sys.history_view(pids[i]);
      ASSERT_EQ(view.size(), n) << what;
      const std::size_t offset = seen[i].size() - n;
      for (std::size_t k = 0; k < n; ++k) {
        expect_same_sample(view[k], seen[i][offset + k], what, k);
      }
    }
  }
};

TEST(RingHistory, RingKeepsTheNewestSamplesInOrderAcrossAWrap) {
  constexpr std::size_t kWindow = 24;
  RecordedSystem rec(kWindow);
  rec.run(20);  // under the window: every sample, no wrap yet
  rec.expect_view_is_suffix(20, "pre-wrap");
  for (const sim::ProcessId pid : rec.pids) {
    EXPECT_TRUE(rec.sys.history_view(pid).newer.empty());
  }
  rec.run(80);  // wraps several times
  rec.expect_view_is_suffix(kWindow, "post-wrap");
  for (const sim::ProcessId pid : rec.pids) {
    EXPECT_FALSE(rec.sys.history_view(pid).newer.empty())
        << "the ring must actually have wrapped";
    // The raw buffer holds the same samples in ring order.
    EXPECT_EQ(rec.sys.sample_history(pid).size(), kWindow);
  }
}

TEST(RingHistory, WindowStatisticsFoldEverySample) {
  constexpr std::size_t kWindow = 16;
  RecordedSystem rec(kWindow);
  rec.run(80);  // stats fold 80 samples; the ring retains 16
  for (std::size_t i = 0; i < rec.pids.size(); ++i) {
    ml::WindowAccumulator oracle;
    for (const hpc::HpcSample& sample : rec.seen[i]) oracle.add(sample);
    const ml::WindowSummary want = oracle.summary();
    const ml::WindowSummary got = rec.sys.window_summary(rec.pids[i]);
    EXPECT_EQ(got.count, want.count);
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      EXPECT_TRUE(same_bits(got.newest[f], want.newest[f])) << "feature " << f;
      EXPECT_TRUE(same_bits(got.mean[f], want.mean[f])) << "feature " << f;
      EXPECT_TRUE(same_bits(got.stddev[f], want.stddev[f])) << "feature " << f;
    }
    // The summary's raw window reads through the span pair and covers
    // exactly the retained ring, newest measurement last.
    ASSERT_EQ(got.window_total(), kWindow);
    const std::size_t offset = rec.seen[i].size() - kWindow;
    for (std::size_t k = 0; k < kWindow; ++k) {
      expect_same_sample(got.window_at(k), rec.seen[i][offset + k],
                         "summary window", k);
    }
  }
}

TEST(RingHistory, ShrinkingTrimsToTheNewestAndWideningKeepsThem) {
  RecordedSystem rec(ml::Detector::kWholeWindow, 3);
  rec.run(10);
  rec.expect_view_is_suffix(10, "whole window");

  rec.sys.set_history_window(4);
  EXPECT_EQ(rec.sys.history_window(), 4u);
  rec.expect_view_is_suffix(4, "trimmed");
  rec.run(6);  // the trimmed ring wraps
  rec.expect_view_is_suffix(4, "wrapped after trim");

  rec.sys.set_history_window(8);  // widen a wrapped ring
  rec.expect_view_is_suffix(4, "widened");
  rec.run(4);
  rec.expect_view_is_suffix(8, "grown after widening");
  rec.run(5);
  rec.expect_view_is_suffix(8, "wrapped after widening");

  rec.sys.set_history_window(0);
  rec.run(3);
  for (const sim::ProcessId pid : rec.pids) {
    EXPECT_TRUE(rec.sys.sample_history(pid).empty());
    EXPECT_EQ(rec.sys.window_summary(pid).window_total(), 0u);
    EXPECT_EQ(rec.sys.window_summary(pid).count, 28u);
  }

  rec.sys.begin_epoch();
  EXPECT_THROW(rec.sys.set_history_window(16), std::logic_error);
  rec.sys.abort_epoch();
}

ml::TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    const hpc::HpcSignature sig =
        label == 1 ? attack_signature() : benign_signature();
    for (int t = 0; t < 8; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name =
          (trace.malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 25; ++i) trace.samples.push_back(sig.sample(rng));
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

/// A statistical detector voting over its 8 newest measurements: the one
/// in-tree declaration of a small finite raw window (served per slot).
ml::StatisticalDetector window_vote_detector() {
  ml::StatDetectorConfig config;
  config.threshold = 0.5;
  config.vote_window = 8;
  ml::StatisticalDetector detector(config);
  detector.fit(ml::flatten(training_corpus()));
  return detector;
}

std::vector<std::uint8_t> run_declared_window(const ml::Detector& detector,
                                              std::size_t workers,
                                              int epochs) {
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector, workers);
  EXPECT_EQ(sys.history_window(), detector.raw_window());
  for (int i = 0; i < 8; ++i) scripted_spawn(sys, engine);
  for (int epoch = 0; epoch < epochs; ++epoch) scripted_epoch(sys, engine);
  for (const sim::ProcessId pid : sys.live_processes()) {
    EXPECT_LE(sys.sample_history(pid).size(), detector.raw_window());
  }
  return snapshot::encode(snapshot::capture(engine));
}

TEST(RingHistory, DeclaredWindowEngineIsDeterministicAcrossWorkers) {
  const ml::StatisticalDetector detector = window_vote_detector();
  ASSERT_EQ(detector.raw_window(), 8u);
  const std::vector<std::uint8_t> golden =
      run_declared_window(detector, 1, 120);
  for (const std::size_t workers : {2u, 8u}) {
    EXPECT_EQ(golden, run_declared_window(detector, workers, 120))
        << workers << " workers";
  }
}

TEST(RingHistory, SnapshotRoundTripContinuesByteIdentically) {
  const ml::StatisticalDetector detector = window_vote_detector();

  sim::SimSystem golden_sys;
  core::ValkyrieEngine golden(golden_sys, detector, 2);
  for (int i = 0; i < 8; ++i) scripted_spawn(golden_sys, golden);
  for (int epoch = 0; epoch < 70; ++epoch) scripted_epoch(golden_sys, golden);
  const std::vector<std::uint8_t> mid =
      snapshot::encode(snapshot::capture(golden));
  for (int epoch = 0; epoch < 50; ++epoch) scripted_epoch(golden_sys, golden);
  const std::vector<std::uint8_t> want =
      snapshot::encode(snapshot::capture(golden));

  // The image carries the window — a bare system adopts it on restore —
  // and the linearized rings replay byte-identically.
  const snapshot::SnapshotImage image = snapshot::parse(mid);
  EXPECT_EQ(image.system.history_window, 8u);
  sim::SimSystem bare;
  bare.restore_from(image.system, snapshot::WorkloadRegistry::bundled());
  EXPECT_EQ(bare.history_window(), 8u);

  sim::SimSystem sys2;
  core::ValkyrieEngine engine2(sys2, detector, 8);
  snapshot::restore(image, engine2, snapshot::RestoreContext{});
  EXPECT_EQ(sys2.history_window(), 8u);
  for (int epoch = 0; epoch < 50; ++epoch) scripted_epoch(sys2, engine2);
  EXPECT_EQ(want, snapshot::encode(snapshot::capture(engine2)));
}

}  // namespace
}  // namespace valkyrie
