// The capstone chaos campaign: a 500-epoch churn scenario with faults
// armed on all three planes (lossy/lying sensors, throwing/garbage
// detector, flaky actuators) plus two supervisor-recovered crashes must
// complete with ZERO aborted epochs and land byte-identical across worker
// counts and across the engine's two routes — graceful degradation may
// change nothing about determinism. Also pins the aborted-epoch semantics a shard exception
// relies on: abort_epoch is idempotent, pending lifecycle ops commit
// exactly once, and a snapshot taken after an abort resumes bit-exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/supervisor.hpp"
#include "core/valkyrie.hpp"
#include "fault/fault_plane.hpp"
#include "ml/svm.hpp"
#include "sequential_loop.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace valkyrie::fault {
namespace {

using core::SupervisedEngine;
using core::SupervisedWorld;
using core::ValkyrieEngine;

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
  script.bursts = {{40, 4}, {170, 3}, {310, 5}};
  script.campaigns = {{80, 6, 15, sim::AttackFamily::kRansomware},
                      {120, 5, 20, sim::AttackFamily::kCryptominer},
                      {340, 6, 18, sim::AttackFamily::kExfiltrator}};
  return script;
}

/// All three planes armed at production-plausible rates: ~1.2% of samples
/// lost or lying (single columns, mostly — feature_fraction 0.4 turns most
/// corruption into partial-plane repairs), ~2% of scored measurements
/// faulting the detector, a flaky actuator channel with some pids'
/// throttle permanently dead, and four correlated fault domains whose
/// burst outages take whole pid groups dark for ~5 epochs at a time.
FaultPlane chaos_plane() {
  FaultPlane plane(0xc4a05);
  plane.sensor = {.dropout_rate = 0.005,
                  .stuck_rate = 0.003,
                  .nan_rate = 0.002,
                  .saturate_rate = 0.002};
  plane.sensor.feature_fraction = 0.4;
  plane.detector = {.throw_rate = 0.01, .garbage_rate = 0.01};
  plane.actuator = {.transient_rate = 0.05, .permanent_rate = 0.02};
  plane.domains = {.domain_count = 4,
                   .node_width = 8,
                   .sensor_outage_rate = 0.015,
                   .actuator_outage_rate = 0.01,
                   .mean_outage_epochs = 5.0};
  return plane;
}

constexpr std::size_t kEpochs = 500;

SupervisedEngine::WorldFactory chaos_factory(const ml::Detector& detector,
                                             const FaultPlane& plane,
                                             std::size_t threads) {
  return [&detector, &plane,
          threads](const snapshot::SnapshotImage* image) -> SupervisedWorld {
    SupervisedWorld world;
    world.system = std::make_unique<sim::SimSystem>();
    world.engine =
        std::make_unique<ValkyrieEngine>(*world.system, detector, threads);
    world.engine->arm_faults(&plane);
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

TEST(FaultChaos, FiveHundredEpochCampaignSurvivesAllThreePlanesAndCrashes) {
  const ml::SvmDetector inner = ml::SvmDetector::make(training_corpus(), 3);
  const FaultPlane plane = chaos_plane();
  const FaultyDetector detector(inner, plane);

  // Golden: the same chaos run, crash-free. Zero aborts = no throw out of
  // any of the 500 steps; the fault plane must have actually bitten.
  std::vector<std::uint8_t> golden;
  {
    const SupervisedWorld world =
        chaos_factory(detector, plane, 1)(nullptr);
    for (std::size_t i = 0; i < kEpochs; ++i) {
      ASSERT_NO_THROW(world.driver->step()) << "epoch " << i << " aborted";
    }
    golden = snapshot::encode(snapshot::capture(*world.driver));

    const ValkyrieEngine::FaultHealth health = world.engine->fault_health();
    EXPECT_GT(health.coasted, 0u) << "sensor faults never quarantined a slot";
    EXPECT_GT(health.masked, 0u)
        << "per-feature faults never degraded an inference";
    EXPECT_GT(health.detector_faults, 0u) << "detector faults never fired";
    EXPECT_GT(health.actuator_failures, 0u) << "actuator faults never fired";
    EXPECT_GT(health.retries, 0u) << "no failed command was ever retried";
    const sim::ScenarioDriver::Stats stats = world.driver->stats();
    EXPECT_GT(stats.attack_spawned, 10u);
    EXPECT_GT(stats.policy_kills + stats.driver_kills, 0u);
  }

  // Chaos + crashes, across worker counts: the supervisor loses the world
  // twice mid-campaign — and in one run the second crash additionally
  // finds its latest checkpoint corrupted, forcing the previous-generation
  // fallback — and must still finish on the same bytes every time.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const bool corrupt = threads == 2;
    SupervisedEngine::Config config;
    config.checkpoint_interval = 32;
    config.crash_epochs = {123, 377};
    if (corrupt) {
      // Damage the step-352 checkpoint: the crash at 377 must reach past
      // it to the step-320 generation (57 epochs of replay).
      config.corrupt_checkpoint_epochs = {352};
    }
    SupervisedEngine supervisor(chaos_factory(detector, plane, threads),
                                config);
    ASSERT_NO_THROW(supervisor.run(kEpochs)) << threads << " workers";
    const SupervisedEngine::Health health = supervisor.health();
    EXPECT_EQ(health.injected_crashes, 2u);
    EXPECT_EQ(health.recoveries, 2u)
        << "only the injected crashes may trigger recovery — a step "
           "exception here means containment failed";
    EXPECT_EQ(health.fallback_recoveries, corrupt ? 1u : 0u);
    if (corrupt) {
      EXPECT_EQ(health.worst_replay, 57u)
          << "the fallback must restore step 320, not the torn 352";
    }
    EXPECT_EQ(snapshot::encode(snapshot::capture(*supervisor.driver())),
              golden)
        << threads << " workers";
  }
}

TEST(FaultChaos, BatchRouteFallsBackAndMatchesPerSlotRoute) {
  // A detector-fault rate high enough that most batches contain a faulted
  // column forces the batch route onto its per-slot fallback almost every
  // epoch — the hardest case for batch-vs-per-slot identity.
  const ml::SvmDetector inner = ml::SvmDetector::make(training_corpus(), 3);
  FaultPlane plane(0xfa11);
  plane.detector = {.throw_rate = 0.15, .garbage_rate = 0.0};
  const FaultyDetector detector(inner, plane);
  const reference::PerSlotRoute per_slot(detector);

  auto run = [&](const ml::Detector& det, std::size_t threads) {
    const SupervisedWorld world = chaos_factory(det, plane, threads)(nullptr);
    for (std::size_t i = 0; i < 200; ++i) world.driver->step();
    return std::make_pair(snapshot::encode(snapshot::capture(*world.driver)),
                          world.engine->fault_health());
  };
  const auto [golden, golden_health] = run(per_slot, 1);
  ASSERT_GT(golden_health.detector_faults, 50u);
  EXPECT_EQ(golden_health.batch_fallbacks, 0u) << "per-slot route batched";
  for (const std::size_t threads : {1u, 8u}) {
    const auto [batched, batched_health] = run(detector, threads);
    EXPECT_EQ(batched, golden) << threads << " workers";
    EXPECT_GT(batched_health.batch_fallbacks, 0u)
        << "this rate must actually exercise the fallback path";
    EXPECT_EQ(batched_health.detector_faults, golden_health.detector_faults)
        << "the fallback must replay the same per-column fault decisions";
  }
}

// --- Aborted-epoch semantics (shard-exception containment substrate) ---------

/// Minimal benign workload for driving SimSystem directly (never captured
/// in a snapshot, so it needs no snapshot hooks).
class StubWorkload final : public sim::Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "stub"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    total_ += out.progress;
    hpc::HpcSignature sig;
    sig.at(hpc::Event::kInstructions) = 3e8;
    sig.at(hpc::Event::kCycles) = 3.5e8;
    sig.at(hpc::Event::kMemBandwidth) = 5e7;
    out.hpc = sig.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    return out;
  }
  [[nodiscard]] double total_progress() const override { return total_; }

 private:
  double total_ = 0.0;
};

TEST(FaultChaos, AbortEpochIsIdempotentAndCommitsPendingLifecycle) {
  sim::SimSystem sys;
  const sim::ProcessId p0 = sys.spawn(std::make_unique<StubWorkload>());
  const sim::ProcessId p1 = sys.spawn(std::make_unique<StubWorkload>());
  for (int i = 0; i < 3; ++i) sys.run_epoch();

  // Open an epoch, enqueue lifecycle ops mid-flight, then abort.
  sys.begin_epoch();
  sys.step_slot(0);
  const sim::ProcessId p2 = sys.spawn(std::make_unique<StubWorkload>());
  sys.kill(p1);
  sys.abort_epoch();
  EXPECT_EQ(sys.current_epoch(), 3u) << "an aborted epoch must not count";
  EXPECT_TRUE(sys.is_live(p2)) << "pending admission must commit on abort";
  EXPECT_FALSE(sys.is_live(p1)) << "pending kill must commit on abort";

  // Idempotence: a second abort (double-unwind — an engine catch block and
  // a supervisor unwinding through it may each try to abort the same
  // failed epoch) must be a no-op, not a double lifecycle commit.
  sys.abort_epoch();
  EXPECT_EQ(sys.current_epoch(), 3u);
  EXPECT_EQ(sys.total_spawned(), 3u);
  EXPECT_TRUE(sys.is_live(p0));
  EXPECT_FALSE(sys.is_live(p1));
  EXPECT_TRUE(sys.is_live(p2));

  // The aborted epoch retries cleanly: p2 (admitted at the abort boundary)
  // first runs in the retried epoch, exactly as if end_epoch had closed it.
  sys.run_epoch();
  EXPECT_EQ(sys.current_epoch(), 4u);
  EXPECT_EQ(sys.epochs_run(p0), 5u) << "3 clean + aborted + retry";
  EXPECT_EQ(sys.epochs_run(p2), 1u);
}

/// Forwards to a wrapped detector, throwing while the shared fuse is lit.
/// With no fault plane armed the engine does NOT contain detector throws:
/// the dispatch unwinds through abort_epoch and rethrows — the way to
/// abort a real engine epoch without putting an unsnapshotable workload
/// into the world.
class ThrowOnceDetector final : public ml::Detector {
 public:
  ThrowOnceDetector(const ml::Detector& inner,
                    std::shared_ptr<std::atomic<int>> fuse)
      : inner_(inner), fuse_(std::move(fuse)) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
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
        throw std::runtime_error("injected shard exception");
      }
    }
  }
  const ml::Detector& inner_;
  std::shared_ptr<std::atomic<int>> fuse_;
};

TEST(FaultChaos, SnapshotAfterAbortedEpochResumesBitExactly) {
  // A shard exception aborts an epoch mid-campaign, with scenario churn in
  // flight. The run is snapshotted right where the exception left it,
  // restored into a fresh world, and both worlds continue: the restored
  // world must shadow the original byte-for-byte — post-abort state
  // (committed lifecycle deltas, uncounted epoch, driver cursors) is fully
  // captured.
  const ml::SvmDetector inner = ml::SvmDetector::make(training_corpus(), 3);
  auto fuse = std::make_shared<std::atomic<int>>(0);
  const ThrowOnceDetector detector(inner, fuse);

  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 2);
  sim::ScenarioDriver driver(engine, churn_script());
  for (int i = 0; i < 90; ++i) driver.step();

  const std::uint64_t epoch_before = sys.current_epoch();
  *fuse = 1;
  EXPECT_THROW(driver.step(), std::runtime_error);
  EXPECT_EQ(*fuse, 0);
  EXPECT_EQ(sys.current_epoch(), epoch_before)
      << "the aborted epoch must not count";

  // Capture at the abort boundary (the epoch is closed — abort_epoch ran
  // inside the engine's containment before the rethrow).
  const snapshot::SnapshotImage image = snapshot::capture(driver);

  // Restore against the PLAIN detector: the thrower forwards name and
  // state hash, so a snapshot of the faulted run interoperates with a
  // fault-free engine.
  sim::SimSystem sys2;
  ValkyrieEngine engine2(sys2, inner, 2);
  snapshot::restore(image, engine2, snapshot::RestoreContext{});
  sim::ScenarioDriver driver2(engine2, churn_script(), image.driver);

  // Both continue (the original's fuse is spent, so the retried epoch and
  // everything after run clean) and must stay bit-identical.
  for (int i = 0; i < 40; ++i) {
    driver.step();
    driver2.step();
  }
  EXPECT_EQ(sys.current_epoch(), epoch_before + 40);
  EXPECT_EQ(snapshot::encode(snapshot::capture(driver2)),
            snapshot::encode(snapshot::capture(driver)));
}

}  // namespace
}  // namespace valkyrie::fault
