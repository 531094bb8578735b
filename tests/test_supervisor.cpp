// SupervisedEngine: the self-healing checkpoint/restore/replay loop.
// Injected crashes and genuine step exceptions must both recover to a
// final state byte-identical to the crash-free run; deterministic faults
// must exhaust the per-step recovery cap instead of retrying forever.
// Also covers the hardened file_sink (fsync-then-rename durability, typed
// SerialError(kIo) surfacing through the Snapshotter's worker thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/supervisor.hpp"
#include "core/valkyrie.hpp"
#include "ml/svm.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/snapshotter.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace valkyrie::core {
namespace {

using util::SerialError;

ml::TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  hpc::HpcSignature benign;
  benign.at(hpc::Event::kInstructions) = 3e8;
  benign.at(hpc::Event::kCycles) = 3.5e8;
  benign.at(hpc::Event::kMemBandwidth) = 5e7;
  hpc::HpcSignature attack;
  attack.at(hpc::Event::kInstructions) = 4e7;
  attack.at(hpc::Event::kLlcMisses) = 4e7;
  attack.at(hpc::Event::kMemBandwidth) = 2e9;
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    for (int t = 0; t < 6; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name = std::to_string(label) + "-" + std::to_string(t);
      for (int i = 0; i < 25; ++i) {
        trace.samples.push_back((label == 1 ? attack : benign).sample(rng));
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

sim::ScenarioScript churn_script() {
  sim::ScenarioScript script;
  script.seed = 0x5ca1e;
  script.initial_processes = 12;
  script.arrival_rate = 0.4;
  script.attack_fraction = 0.15;
  script.attack_families = {sim::AttackFamily::kCryptominer,
                            sim::AttackFamily::kRansomware,
                            sim::AttackFamily::kExfiltrator};
  script.mean_lifetime = 60.0;
  script.kill_exit_fraction = 0.6;
  script.bursts = {{40, 4}, {170, 3}};
  script.campaigns = {{80, 6, 15, sim::AttackFamily::kRansomware},
                      {120, 5, 20, sim::AttackFamily::kCryptominer}};
  return script;
}

constexpr std::size_t kEpochs = 200;

SupervisedEngine::WorldFactory scenario_factory(const ml::Detector& detector,
                                                std::size_t threads) {
  return [&detector,
          threads](const snapshot::SnapshotImage* image) -> SupervisedWorld {
    SupervisedWorld world;
    world.system = std::make_unique<sim::SimSystem>();
    world.engine =
        std::make_unique<ValkyrieEngine>(*world.system, detector, threads);
    if (image == nullptr) {
      world.driver =
          std::make_unique<sim::ScenarioDriver>(*world.engine, churn_script());
    } else {
      snapshot::restore(*image, *world.engine, snapshot::RestoreContext{});
      world.driver = std::make_unique<sim::ScenarioDriver>(
          *world.engine, churn_script(), image->driver);
    }
    return world;
  };
}

std::vector<std::uint8_t> golden_run(const ml::Detector& detector) {
  const SupervisedWorld world = scenario_factory(detector, 2)(nullptr);
  for (std::size_t i = 0; i < kEpochs; ++i) world.driver->step();
  return snapshot::encode(snapshot::capture(*world.driver));
}

TEST(Supervisor, InjectedCrashesRecoverToTheGoldenState) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const std::vector<std::uint8_t> golden = golden_run(detector);

  SupervisedEngine::Config config;
  config.checkpoint_interval = 16;
  config.crash_epochs = {57, 130};
  SupervisedEngine supervisor(scenario_factory(detector, 2), config);
  supervisor.run(kEpochs);

  EXPECT_EQ(snapshot::encode(snapshot::capture(*supervisor.driver())), golden)
      << "supervised run with 2 crashes diverged from the crash-free run";
  // latest_checkpoint() flushes the encoder, so every requested checkpoint
  // has been sink-confirmed by the time health is read.
  EXPECT_FALSE(supervisor.latest_checkpoint().empty());
  const SupervisedEngine::Health health = supervisor.health();
  EXPECT_EQ(health.steps, kEpochs);
  EXPECT_EQ(health.injected_crashes, 2u);
  EXPECT_EQ(health.recoveries, 2u);
  // Crash at 57 restores the step-48 checkpoint (9 epochs replayed); crash
  // at 130 restores step 128 (2 replayed).
  EXPECT_EQ(health.epochs_replayed, 11u);
  EXPECT_EQ(health.worst_replay, 9u);
  EXPECT_EQ(health.checkpoint_failures, 0u);
  EXPECT_EQ(health.fallback_recoveries, 0u);
  // Baseline + every 16th of 200 steps; replay never double-checkpoints.
  EXPECT_EQ(health.checkpoints, 1u + kEpochs / 16);
  // The recovery log prices each rebuild individually.
  ASSERT_EQ(supervisor.recovery_log().size(), 2u);
  EXPECT_EQ(supervisor.recovery_log()[0].at_step, 57u);
  EXPECT_EQ(supervisor.recovery_log()[0].replay_epochs, 9u);
  EXPECT_FALSE(supervisor.recovery_log()[0].fallback);
  EXPECT_EQ(supervisor.recovery_log()[1].at_step, 130u);
  EXPECT_EQ(supervisor.recovery_log()[1].replay_epochs, 2u);
  EXPECT_FALSE(supervisor.recovery_log()[1].fallback);
}

TEST(Supervisor, RecoveryWorksAcrossWorkerCounts) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const std::vector<std::uint8_t> golden = golden_run(detector);
  // Crash under one engine configuration, recover and finish under it —
  // every configuration must land on the same bytes.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SupervisedEngine::Config config;
    config.checkpoint_interval = 32;
    config.crash_epochs = {99};
    SupervisedEngine supervisor(scenario_factory(detector, threads), config);
    supervisor.run(kEpochs);
    EXPECT_EQ(snapshot::encode(snapshot::capture(*supervisor.driver())),
              golden)
        << threads << " workers";
  }
}

// --- Genuine step exceptions -------------------------------------------------

/// Forwards to the wrapped detector, but throws on the vote path while the
/// shared fuse holds a positive count (each throw burns one unit). External
/// mutable state — deliberately NOT restored by snapshots — so "transient"
/// (count 1) and "deterministic" (count huge) failures are both expressible.
class FusedThrowDetector final : public ml::Detector {
 public:
  FusedThrowDetector(const ml::Detector& inner,
                     std::shared_ptr<std::atomic<int>> fuse)
      : inner_(inner), fuse_(std::move(fuse)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  [[nodiscard]] std::uint64_t state_hash() const override {
    return inner_.state_hash();
  }
  [[nodiscard]] std::optional<double> vote_fraction() const override {
    return inner_.vote_fraction();
  }
  [[nodiscard]] PlaneSections plane_sections() const override {
    return inner_.plane_sections();
  }
  [[nodiscard]] ml::Inference infer(
      std::span<const hpc::HpcSample> window) const override {
    burn();
    return inner_.infer(window);
  }
  [[nodiscard]] ml::Inference infer(
      const ml::WindowSummary& summary) const override {
    burn();
    return inner_.infer(summary);
  }
  [[nodiscard]] bool measurement_vote(
      std::span<const double> features) const override {
    burn();
    return inner_.measurement_vote(features);
  }
  void measurement_votes(const ml::FeatureMatrixView& batch,
                         std::span<std::uint8_t> out) const override {
    burn();
    inner_.measurement_votes(batch, out);
  }
  void infer_batch(const ml::SummaryMatrixView& batch,
                   std::span<ml::Inference> out) const override {
    burn();
    inner_.infer_batch(batch, out);
  }

 private:
  void burn() const {
    // Every shard calls in concurrently, so the fuse is atomic: exactly
    // as many calls throw as the fuse holds.
    int lit = fuse_->load(std::memory_order_relaxed);
    while (lit > 0) {
      if (fuse_->compare_exchange_weak(lit, lit - 1,
                                       std::memory_order_relaxed)) {
        throw std::runtime_error("transient detector outage");
      }
    }
  }
  const ml::Detector& inner_;
  std::shared_ptr<std::atomic<int>> fuse_;
};

TEST(Supervisor, TransientStepExceptionIsRecoveredAndRetried) {
  const ml::SvmDetector inner = ml::SvmDetector::make(training_corpus(), 3);
  const std::vector<std::uint8_t> golden = golden_run(inner);

  auto fuse = std::make_shared<std::atomic<int>>(0);
  const FusedThrowDetector detector(inner, fuse);
  SupervisedEngine::Config config;
  config.checkpoint_interval = 1;  // replay-free retries: pure fuse logic
  SupervisedEngine supervisor(scenario_factory(detector, 2), config);
  for (std::size_t i = 0; i < kEpochs; ++i) {
    if (i == 83) *fuse = 1;  // one epoch's worth of outage
    supervisor.step();
  }
  EXPECT_EQ(supervisor.health().recoveries, 1u);
  EXPECT_EQ(supervisor.health().injected_crashes, 0u);
  EXPECT_EQ(supervisor.health().steps, kEpochs);
  EXPECT_EQ(snapshot::encode(snapshot::capture(*supervisor.driver())), golden)
      << "the retried epoch must replay bit-identically";
}

TEST(Supervisor, DeterministicFaultExhaustsTheRecoveryCap) {
  const ml::SvmDetector inner = ml::SvmDetector::make(training_corpus(), 3);
  auto fuse = std::make_shared<std::atomic<int>>(0);
  const FusedThrowDetector detector(inner, fuse);
  SupervisedEngine::Config config;
  config.checkpoint_interval = 1;
  config.max_recoveries_per_step = 3;
  SupervisedEngine supervisor(scenario_factory(detector, 1), config);
  supervisor.run(40);
  *fuse = 1 << 20;  // effectively "fails every attempt"
  EXPECT_THROW(supervisor.step(), std::runtime_error);
  EXPECT_EQ(supervisor.health().recoveries, 3u)
      << "exactly the cap, then rethrow";
  EXPECT_EQ(supervisor.health().steps, 40u) << "the failed step never counts";
  // The world was rebuilt from the last checkpoint: once the fault clears,
  // the supervisor picks up where it left off.
  *fuse = 0;
  supervisor.run(10);
  EXPECT_EQ(supervisor.health().steps, 50u);
}

// --- Checkpoint cadence, generations and priced durability -----------------

TEST(Supervisor, CrashOnACheckpointBoundaryKeepsTheCadence) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const std::vector<std::uint8_t> golden = golden_run(detector);

  SupervisedEngine::Config config;
  config.checkpoint_interval = 16;
  // 32 is a checkpoint step: the replayed world must still be checkpointed
  // there, or every later checkpoint slides one step off the grid.
  config.crash_epochs = {32, 57};
  SupervisedEngine supervisor(scenario_factory(detector, 2), config);
  supervisor.run(kEpochs);

  EXPECT_EQ(snapshot::encode(snapshot::capture(*supervisor.driver())), golden);
  EXPECT_FALSE(supervisor.latest_checkpoint().empty());  // also flushes
  const SupervisedEngine::Health health = supervisor.health();
  // Crash at 32 restores step 16 (16 replayed); crash at 57 restores the
  // step-48 checkpoint (9 replayed), exactly as it does without the first.
  ASSERT_EQ(supervisor.recovery_log().size(), 2u);
  EXPECT_EQ(supervisor.recovery_log()[0].replay_epochs, 16u);
  EXPECT_EQ(supervisor.recovery_log()[1].replay_epochs, 9u);
  EXPECT_EQ(health.epochs_replayed, 25u);
  EXPECT_EQ(health.checkpoints, 1u + kEpochs / 16);
}

TEST(Supervisor, CorruptedLatestCheckpointFallsBackToThePreviousGeneration) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const std::vector<std::uint8_t> golden = golden_run(detector);

  SupervisedEngine::Config config;
  config.checkpoint_interval = 16;
  config.crash_epochs = {100};
  // Damage exactly the checkpoint the crash wants to restore from.
  config.corrupt_checkpoint_epochs = {96};
  SupervisedEngine supervisor(scenario_factory(detector, 2), config);
  supervisor.run(kEpochs);

  EXPECT_EQ(snapshot::encode(snapshot::capture(*supervisor.driver())), golden)
      << "fallback recovery must still converge to the crash-free bytes";
  EXPECT_FALSE(supervisor.latest_checkpoint().empty());  // also flushes
  const SupervisedEngine::Health health = supervisor.health();
  EXPECT_EQ(health.recoveries, 1u);
  EXPECT_EQ(health.fallback_recoveries, 1u)
      << "the torn step-96 checkpoint must force the previous generation";
  // The fallback reaches past step 96 to the step-80 generation: 20 epochs.
  EXPECT_EQ(health.epochs_replayed, 20u);
  EXPECT_EQ(health.worst_replay, 20u);
  ASSERT_EQ(supervisor.recovery_log().size(), 1u);
  EXPECT_EQ(supervisor.recovery_log()[0].at_step, 100u);
  EXPECT_EQ(supervisor.recovery_log()[0].replay_epochs, 20u);
  EXPECT_TRUE(supervisor.recovery_log()[0].fallback);
}

TEST(Supervisor, FallbackThroughThePooledImageKeepsLaterRecoveriesExact) {
  // Recovery parses into one of the Snapshotter's kept images. The torn
  // step-96 checkpoint fails its parse after the system and engine
  // sections were already decoded into that image, the fallback parse
  // overwrites it, and the image then goes back to be captured into: the
  // step-144 checkpoint is taken through it, and the crash at 150 restores
  // from that. Both recoveries must still land on the golden bytes.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const std::vector<std::uint8_t> golden = golden_run(detector);
  for (const std::size_t threads : {1u, 2u}) {
    SupervisedEngine::Config config;
    config.checkpoint_interval = 16;
    config.crash_epochs = {100, 150};
    config.corrupt_checkpoint_epochs = {96};
    SupervisedEngine supervisor(scenario_factory(detector, threads), config);
    supervisor.run(kEpochs);

    EXPECT_EQ(snapshot::encode(snapshot::capture(*supervisor.driver())),
              golden)
        << threads << " workers";
    EXPECT_FALSE(supervisor.latest_checkpoint().empty());  // also flushes
    const SupervisedEngine::Health health = supervisor.health();
    EXPECT_EQ(health.recoveries, 2u);
    EXPECT_EQ(health.fallback_recoveries, 1u);
    // 100 falls back past step 96 to step 80 (20 replayed); 150 restores
    // step 144 (6 replayed).
    EXPECT_EQ(health.epochs_replayed, 26u);
    ASSERT_EQ(supervisor.recovery_log().size(), 2u);
    EXPECT_TRUE(supervisor.recovery_log()[0].fallback);
    EXPECT_FALSE(supervisor.recovery_log()[1].fallback);
  }
}

TEST(Supervisor, DurabilityFailuresArePricedNotFatal) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const std::vector<std::uint8_t> golden = golden_run(detector);

  // The sink counts its own deliveries, which arrive one at a time in
  // request order (replay requests none): the baseline is the 1st and the
  // step-96 checkpoint the 7th, so exactly that one fails to persist,
  // however far the encoder lags the stepping thread.
  auto deliveries = std::make_shared<std::size_t>(0);
  SupervisedEngine::Config config;
  config.checkpoint_interval = 16;
  config.crash_epochs = {100};
  config.durability_sink = [deliveries](std::vector<std::uint8_t>) {
    if (++*deliveries == 7) throw std::runtime_error("disk full");
  };
  SupervisedEngine supervisor(scenario_factory(detector, 2), config);
  supervisor.run(kEpochs);

  EXPECT_EQ(snapshot::encode(snapshot::capture(*supervisor.driver())), golden)
      << "a failed checkpoint must not perturb the world's timeline";
  EXPECT_FALSE(supervisor.latest_checkpoint().empty());  // also flushes
  const SupervisedEngine::Health health = supervisor.health();
  EXPECT_EQ(health.checkpoint_failures, 1u)
      << "exactly the step-96 checkpoint failed";
  // An unconfirmed checkpoint never enters the generations, so the crash at
  // 100 restores step 80 and pays 20 epochs of replay instead of 4.
  EXPECT_EQ(health.recoveries, 1u);
  EXPECT_EQ(health.fallback_recoveries, 0u);
  EXPECT_EQ(health.epochs_replayed, 20u);
  // Baseline + 12 interval checkpoints, minus the one that failed.
  EXPECT_EQ(health.checkpoints, 12u);
}

TEST(Supervisor, InvalidConfigurationsAreRejected) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  SupervisedEngine::Config zero_interval;
  zero_interval.checkpoint_interval = 0;
  EXPECT_THROW(SupervisedEngine(scenario_factory(detector, 1), zero_interval),
               std::invalid_argument);
  EXPECT_THROW(SupervisedEngine(nullptr, SupervisedEngine::Config{}),
               std::invalid_argument);
  const SupervisedEngine::WorldFactory engineless =
      [](const snapshot::SnapshotImage*) {
        SupervisedWorld world;
        world.system = std::make_unique<sim::SimSystem>();
        return world;
      };
  EXPECT_THROW(SupervisedEngine(engineless, SupervisedEngine::Config{}),
               std::invalid_argument);
}

// --- Hardened file sink ------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("valkyrie_sink_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(Supervisor, FileSinkWritesDurablyAndAtomically) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const SupervisedWorld world =
      scenario_factory(detector, 1)(nullptr);
  for (int i = 0; i < 30; ++i) world.driver->step();

  TempDir dir;
  const std::filesystem::path target = dir.path() / "latest.snap";
  {
    snapshot::Snapshotter snapshotter(
        snapshot::file_sink(target.string()));
    snapshotter.request(*world.driver);
    for (int i = 0; i < 10; ++i) world.driver->step();
    snapshotter.request(*world.driver);  // second write replaces the first
    snapshotter.flush();
    EXPECT_EQ(snapshotter.completed(), 2u);
  }
  ASSERT_TRUE(std::filesystem::exists(target));
  EXPECT_FALSE(std::filesystem::exists(target.string() + ".tmp"))
      << "the staging file must not outlive a successful rename";

  std::ifstream in(target, std::ios::binary);
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  const snapshot::SnapshotImage image = snapshot::parse(bytes);
  EXPECT_EQ(image.system.epoch, 40u) << "the file must hold the LAST snapshot";
  EXPECT_TRUE(image.has_driver);
}

TEST(Supervisor, FileSinkFailuresSurfaceAsTypedIoErrors) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const SupervisedWorld world =
      scenario_factory(detector, 1)(nullptr);
  for (int i = 0; i < 10; ++i) world.driver->step();

  // Unwritable target directory: open() fails on the worker thread; the
  // error must surface on the producer thread as SerialError(kIo), and the
  // Snapshotter must stay usable afterwards.
  {
    snapshot::Snapshotter snapshotter(snapshot::file_sink(
        "/nonexistent_valkyrie_dir/deeper/latest.snap"));
    snapshotter.request(*world.driver);
    try {
      snapshotter.flush();
      FAIL() << "flush() must rethrow the worker-side sink failure";
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kIo);
    }
    snapshotter.flush();  // error consumed: a clean flush is quiet
  }

  // Rename-step failure: the target exists as a DIRECTORY. The temp file
  // writes fine, the rename cannot land, and the staging file is cleaned
  // up — `path` never names a torn file.
  {
    TempDir dir;
    const std::filesystem::path target = dir.path() / "occupied";
    std::filesystem::create_directory(target);
    snapshot::Snapshotter snapshotter(
        snapshot::file_sink(target.string()));
    snapshotter.request(*world.driver);
    try {
      snapshotter.flush();
      FAIL() << "rename onto a directory must fail loudly";
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kIo);
    }
    EXPECT_FALSE(std::filesystem::exists(target.string() + ".tmp"));
    EXPECT_TRUE(std::filesystem::is_directory(target));
  }
}

}  // namespace
}  // namespace valkyrie::core
