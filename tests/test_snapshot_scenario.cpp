// Crash-fault injection over full scenario campaigns: a ScenarioDriver run
// under core::SupervisedEngine that is killed at randomized epoch
// boundaries — including mid-campaign, with scheduled kills pending in the
// departure heap — and rebuilt from its checkpoint bytes must finish in a
// state byte-identical to the uninterrupted golden run. Also covers the
// Snapshotter worker (off-thread encoding) and the driver restore
// constructor's compatibility guards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/supervisor.hpp"
#include "core/valkyrie.hpp"
#include "ml/svm.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/snapshotter.hpp"
#include "util/rng.hpp"

namespace valkyrie::sim {
namespace {

using core::ValkyrieEngine;
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

/// A churn-heavy script whose campaigns straddle the crash region:
/// staggered ransomware + cryptominer waves are still arriving while the
/// crashes kill the run, and finite lifetimes keep the departure heap
/// populated at every boundary.
ScenarioScript churn_script() {
  ScenarioScript script;
  script.seed = 0x5ca1e;
  script.initial_processes = 12;
  script.arrival_rate = 0.4;
  script.attack_fraction = 0.15;
  script.attack_families = {AttackFamily::kCryptominer,
                            AttackFamily::kRansomware,
                            AttackFamily::kExfiltrator};
  script.mean_lifetime = 60.0;
  script.kill_exit_fraction = 0.6;
  script.bursts = {{40, 4}, {170, 3}};
  script.campaigns = {{80, 6, 15, AttackFamily::kRansomware},
                      {120, 5, 20, AttackFamily::kCryptominer}};
  return script;
}

constexpr std::size_t kEpochs = 260;

core::SupervisedEngine::WorldFactory make_factory(
    const ml::SvmDetector& detector, std::size_t threads) {
  return [&detector, threads](
             const snapshot::SnapshotImage* image) -> core::SupervisedWorld {
    core::SupervisedWorld world;
    world.system = std::make_unique<SimSystem>();
    world.engine =
        std::make_unique<ValkyrieEngine>(*world.system, detector, threads);
    if (image == nullptr) {
      world.driver =
          std::make_unique<ScenarioDriver>(*world.engine, churn_script());
    } else {
      snapshot::restore(*image, *world.engine, snapshot::RestoreContext{});
      world.driver = std::make_unique<ScenarioDriver>(
          *world.engine, churn_script(), image->driver);
    }
    return world;
  };
}

/// `crashes` distinct crash steps strictly inside the run, drawn from
/// `seed` (a crash before the first step or after the last would
/// degenerate to a plain round trip).
std::vector<std::uint64_t> draw_crash_steps(std::uint64_t seed,
                                            std::size_t crashes) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> steps;
  while (steps.size() < crashes) {
    const std::uint64_t step = 1 + rng.below(kEpochs - 1);
    if (std::find(steps.begin(), steps.end(), step) == steps.end()) {
      steps.push_back(step);
    }
  }
  return steps;
}

TEST(SnapshotScenario, CrashedAndRestoredCampaignMatchesGoldenRun) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);

  // Golden: the uninterrupted run.
  std::vector<std::uint8_t> golden;
  ScenarioDriver::Stats golden_stats{};
  {
    const core::SupervisedWorld world = make_factory(detector, 2)(nullptr);
    for (std::size_t i = 0; i < kEpochs; ++i) world.driver->step();
    golden = snapshot::encode(snapshot::capture(*world.driver));
    golden_stats = world.driver->stats();
  }
  ASSERT_GT(golden_stats.attack_spawned, 10u)
      << "campaigns must actually have injected attacks";
  ASSERT_GT(golden_stats.driver_kills, 0u);

  // Crash at randomized boundaries (seed-deterministic), mid-campaign, and
  // rebuild the world from parsed checkpoint bytes. Checkpointing every
  // step makes each crash restore the boundary just before it; every 7th
  // step makes the restores replay several epochs. The 8-worker run must
  // land on the 2-worker golden bytes.
  const struct {
    std::uint64_t seed;
    std::uint64_t interval;
    std::size_t threads;
    std::size_t crashes;
  } runs[] = {{0x1dea5, 1, 2, 3}, {0xbeef, 7, 2, 3}, {0x77aa, 16, 8, 2}};
  for (const auto& run : runs) {
    core::SupervisedEngine::Config config;
    config.checkpoint_interval = run.interval;
    config.crash_epochs = draw_crash_steps(run.seed, run.crashes);
    core::SupervisedEngine supervisor(make_factory(detector, run.threads),
                                      config);
    supervisor.run(kEpochs);
    EXPECT_EQ(golden, snapshot::encode(snapshot::capture(*supervisor.driver())))
        << "seed " << run.seed << ": crashed run diverged from golden";
    const core::SupervisedEngine::Health health = supervisor.health();
    EXPECT_EQ(health.injected_crashes, run.crashes) << "seed " << run.seed;
    EXPECT_EQ(health.recoveries, run.crashes) << "seed " << run.seed;
    // Each crash restores the last checkpoint strictly before it.
    for (const core::SupervisedEngine::RecoveryRecord& record :
         supervisor.recovery_log()) {
      EXPECT_EQ(record.replay_epochs, (record.at_step - 1) % run.interval + 1)
          << "seed " << run.seed << ", crash at " << record.at_step;
    }
  }
}

TEST(SnapshotScenario, DriverRestoreGuardsScriptAndProgress) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  ScenarioDriver driver(engine, churn_script());
  for (int i = 0; i < 60; ++i) driver.step();
  const snapshot::SnapshotImage image = snapshot::capture(driver);
  ASSERT_TRUE(image.has_driver);

  SimSystem sys2;
  ValkyrieEngine engine2(sys2, detector, 1);
  snapshot::restore(image, engine2, snapshot::RestoreContext{});

  // A script whose data fields differ must be refused (it is code the
  // snapshot only fingerprints).
  {
    ScenarioScript edited = churn_script();
    edited.arrival_rate += 0.1;
    try {
      ScenarioDriver bad(engine2, edited, image.driver);
      FAIL() << "driver restore accepted an edited script";
    } catch (const SerialError& e) {
      EXPECT_EQ(e.code(), SerialError::Code::kIncompatible);
    }
  }

  // The matching script resumes and replays bit-identically.
  ScenarioDriver restored(engine2, churn_script(), image.driver);
  EXPECT_EQ(driver.stats().spawned, restored.stats().spawned);
  for (int i = 0; i < 40; ++i) {
    driver.step();
    restored.step();
  }
  EXPECT_EQ(snapshot::encode(snapshot::capture(driver)),
            snapshot::encode(snapshot::capture(restored)));
}

// The departure array is restored verbatim, so the constructor checks the
// two things step() relies on: it is a heap under the driver's ordering
// (std::pop_heap's precondition), and each pid exists in the restored
// system (a due departure reads its liveness).
TEST(SnapshotScenario, DriverRestoreRefusesAMalformedDepartureHeap) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  ScenarioDriver driver(engine, churn_script());
  for (int i = 0; i < 60; ++i) driver.step();
  const snapshot::SnapshotImage image = snapshot::capture(driver);
  ASSERT_GE(image.driver.departures.size(), 2u);

  SimSystem sys2;
  ValkyrieEngine engine2(sys2, detector, 1);
  snapshot::restore(image, engine2, snapshot::RestoreContext{});
  const auto refused = [&engine2](const snapshot::DriverImage& bad) {
    try {
      ScenarioDriver restored(engine2, churn_script(), bad);
    } catch (const SerialError& e) {
      return e.code() == SerialError::Code::kMalformed;
    }
    return false;
  };

  snapshot::DriverImage not_a_heap = image.driver;
  not_a_heap.departures[0].first = not_a_heap.departures[1].first + 1;
  EXPECT_TRUE(refused(not_a_heap)) << "a root due after its child";

  snapshot::DriverImage unspawned = image.driver;
  unspawned.departures[0].second =
      static_cast<ProcessId>(sys2.total_spawned());
  EXPECT_TRUE(refused(unspawned)) << "a departure for an unspawned pid";

  EXPECT_FALSE(refused(image.driver));
}

TEST(SnapshotScenario, SnapshotterEncodesOffThreadInRequestOrder) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  SimSystem sys;
  ValkyrieEngine engine(sys, detector, 2);
  ScenarioDriver driver(engine, churn_script());

  std::mutex mutex;
  std::vector<std::vector<std::uint8_t>> delivered;
  snapshot::Snapshotter snapshotter(
      [&mutex, &delivered](std::vector<std::uint8_t> bytes) {
        const std::lock_guard<std::mutex> lock(mutex);
        delivered.push_back(std::move(bytes));
      });

  std::vector<std::uint64_t> epochs;
  for (int i = 0; i < 80; ++i) {
    driver.step();
    if (i % 16 == 7) {
      snapshotter.request(driver);
      epochs.push_back(sys.current_epoch());
    }
  }
  snapshotter.flush();
  EXPECT_EQ(snapshotter.completed(), epochs.size());

  const std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(delivered.size(), epochs.size());
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    const snapshot::SnapshotImage image = snapshot::parse(delivered[i]);
    EXPECT_EQ(image.system.epoch, epochs[i]) << "snapshot " << i;
    EXPECT_TRUE(image.has_driver);
  }

  // The captured state is restorable: rebuild from the LAST delivery and
  // continue in lockstep with the original.
  const snapshot::SnapshotImage last = snapshot::parse(delivered.back());
  SimSystem sys2;
  ValkyrieEngine engine2(sys2, detector, 2);
  snapshot::restore(last, engine2, snapshot::RestoreContext{});
  ScenarioDriver restored(engine2, churn_script(), last.driver);
  // The original driver is ahead (it kept stepping after the request);
  // catch the restored one up to the same epoch first.
  while (sys2.current_epoch() < sys.current_epoch()) restored.step();
  EXPECT_EQ(snapshot::encode(snapshot::capture(driver)),
            snapshot::encode(snapshot::capture(restored)));
}

}  // namespace
}  // namespace valkyrie::sim
