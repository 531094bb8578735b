// Determinism contract of the engine's single schedule. For each route a
// detector can declare — newest-only votes (SVM), stats rows through
// infer_batch (the window MLP) and no batch kernel at all (a kFull stub
// served per slot) — an engine run must be bit-identical to the plain
// sequential loop of sequential_loop.hpp for any worker count: actions,
// monitor states, threat indices, measurement counts, retained HPC samples
// and window state, scheduler weights, cgroup caps, progress and exit
// reasons. The runs mix
// kills, natural completions, unattached processes and a mid-run detach +
// re-attach, so the per-slot catch-up path runs on both routes. The
// schedule also carries a structural contract: exactly ONE pool dispatch
// per epoch, observed through the pool's dispatch counter.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "sequential_loop.hpp"
#include "sim/system.hpp"
#include "util/thread_pool.hpp"

namespace valkyrie::core {
namespace {

// --- Workloads ---------------------------------------------------------------

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

/// Signature-driven workload; finishes after `lifetime` epochs (0 = never),
/// so runs mix completions into the slot-compaction bookkeeping.
class SigWorkload final : public sim::Workload {
 public:
  SigWorkload(hpc::HpcSignature sig, bool attack, std::uint64_t lifetime = 0)
      : sig_(sig), attack_(attack), lifetime_(lifetime) {}

  [[nodiscard]] std::string_view name() const override { return "sig"; }
  [[nodiscard]] bool is_attack() const override { return attack_; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    progress_ += out.progress;
    out.hpc = sig_.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    ++epochs_;
    out.finished = lifetime_ != 0 && epochs_ >= lifetime_;
    return out;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }

 private:
  hpc::HpcSignature sig_;
  bool attack_;
  std::uint64_t lifetime_;
  double progress_ = 0.0;
  std::uint64_t epochs_ = 0;
};

ml::TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    const hpc::HpcSignature sig =
        label == 1 ? attack_signature() : benign_signature();
    for (int t = 0; t < 8; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name = (trace.malicious ? "attack-" : "benign-") +
                   std::to_string(t);
      for (int i = 0; i < 25; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

/// A vote detector without a batch kernel (plane_sections stays kFull), so
/// the engine serves it per slot: a measurement is malicious when its LLC
/// miss rate sits above the benign level, the window when most are.
class PerSlotVoteDetector final : public ml::Detector {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "per-slot-vote";
  }
  [[nodiscard]] ml::Inference infer(
      std::span<const hpc::HpcSample> window) const override {
    std::size_t votes = 0;
    hpc::FeatureVec f;
    for (const hpc::HpcSample& s : window) {
      hpc::to_features(s, f);
      votes += measurement_vote(f) ? 1 : 0;
    }
    return 2 * votes > window.size() ? ml::Inference::kMalicious
                                     : ml::Inference::kBenign;
  }
  [[nodiscard]] std::optional<double> vote_fraction() const override {
    return 0.5;
  }
  [[nodiscard]] bool measurement_vote(
      std::span<const double> features) const override {
    // log1p LLC misses per megacycle: ~7.0 benign, ~11.6 attack.
    return features[static_cast<std::size_t>(hpc::Event::kLlcMisses)] > 7.4;
  }
};

// --- Full-run capture --------------------------------------------------------

constexpr std::size_t kProcs = 24;
constexpr std::size_t kEpochs = 500;

struct RunResult {
  // actions[epoch][attachment index]
  std::vector<std::vector<ValkyrieMonitor::Action>> actions;
  std::vector<ProcessState> states;
  std::vector<double> threats;
  std::vector<std::size_t> measurements;
  std::vector<sim::ExitReason> exits;
  std::vector<double> progress;
  std::vector<double> sched_factors;
  std::vector<double> cpu_caps;
  std::vector<reference::Telemetry> telemetry;
};

/// The shared script, against the engine or the sequential loop.
template <typename Driver>
RunResult drive(sim::SimSystem& sys, Driver& driver) {
  std::vector<sim::ProcessId> pids;
  for (std::size_t i = 0; i < kProcs; ++i) {
    // Mostly benign, a few attacks (terminated mid-run) and a few finite
    // benign programs (natural completion mid-run), with a couple of live
    // processes left *unattached* so the dispatch also walks slots without
    // a monitor.
    const bool attack = i % 6 == 1;
    const std::uint64_t lifetime = i % 8 == 5 ? 120 + i : 0;
    const hpc::HpcSignature sig =
        attack ? attack_signature() : benign_signature();
    const sim::ProcessId pid =
        sys.spawn(std::make_unique<SigWorkload>(sig, attack, lifetime));
    if (i % 11 == 7) continue;  // unattached live process
    std::unique_ptr<Actuator> actuator;
    if (i % 2 == 0) {
      actuator = std::make_unique<SchedulerWeightActuator>();
    } else {
      actuator = std::make_unique<CgroupCpuActuator>();
    }
    driver.attach(pid, ValkyrieConfig{}, std::move(actuator));
    pids.push_back(pid);
  }

  // Detached mid-run and re-attached 100 epochs later: the fresh monitor's
  // stream must catch up over the accumulated window.
  const sim::ProcessId rejoin = pids[3];
  RunResult r;
  r.actions.reserve(kEpochs);
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch == 150) driver.detach(rejoin);
    if (epoch == 250) {
      driver.attach(rejoin, ValkyrieConfig{},
                    std::make_unique<CgroupCpuActuator>());
    }
    driver.step();
    std::vector<ValkyrieMonitor::Action> epoch_actions;
    epoch_actions.reserve(pids.size());
    for (const sim::ProcessId pid : pids) {
      epoch_actions.push_back(driver.is_attached(pid)
                                  ? driver.last_action(pid)
                                  : ValkyrieMonitor::Action::kNone);
    }
    r.actions.push_back(std::move(epoch_actions));
  }

  for (const sim::ProcessId pid : pids) {
    r.states.push_back(driver.monitor(pid).state());
    r.threats.push_back(driver.monitor(pid).threat());
    r.measurements.push_back(driver.monitor(pid).measurements());
    r.exits.push_back(sys.exit_reason(pid));
    r.progress.push_back(sys.workload(pid).total_progress());
    r.sched_factors.push_back(sys.weight_factor(pid));
    r.cpu_caps.push_back(sys.cgroup_caps(pid).cpu);
    r.telemetry.push_back(reference::telemetry(sys, pid));
  }
  return r;
}

RunResult run_engine(const ml::Detector& detector,
                     std::size_t worker_threads) {
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, worker_threads);
  return drive(sys, engine);
}

RunResult run_sequential_loop(const ml::Detector& detector) {
  sim::SimSystem sys;
  reference::SequentialLoop loop(sys, detector);
  return drive(sys, loop);
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.actions.size(), b.actions.size());
  for (std::size_t e = 0; e < a.actions.size(); ++e) {
    ASSERT_EQ(a.actions[e], b.actions[e]) << label << ", epoch " << e;
  }
  EXPECT_EQ(a.states, b.states) << label;
  EXPECT_EQ(a.measurements, b.measurements) << label;
  EXPECT_EQ(a.exits, b.exits) << label;
  // Doubles compared exactly: the contract is bit-identical, not close.
  EXPECT_EQ(a.threats, b.threats) << label;
  EXPECT_EQ(a.progress, b.progress) << label;
  EXPECT_EQ(a.sched_factors, b.sched_factors) << label;
  EXPECT_EQ(a.cpu_caps, b.cpu_caps) << label;
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t p = 0; p < a.telemetry.size(); ++p) {
    reference::expect_same_telemetry(a.telemetry[p], b.telemetry[p],
                                     label + ", attachment " +
                                         std::to_string(p));
  }
}

void expect_engine_matches_sequential_loop(const ml::Detector& detector,
                                           const char* label) {
  const RunResult baseline = run_sequential_loop(detector);

  // The run must exercise mixed outcomes or the test proves nothing.
  bool saw_kill = false;
  bool saw_completion = false;
  bool saw_survivor = false;
  for (const sim::ExitReason exit : baseline.exits) {
    saw_kill |= exit == sim::ExitReason::kKilled;
    saw_completion |= exit == sim::ExitReason::kCompleted;
    saw_survivor |= exit == sim::ExitReason::kRunning;
  }
  ASSERT_TRUE(saw_kill) << label;
  ASSERT_TRUE(saw_completion) << label;
  ASSERT_TRUE(saw_survivor) << label;
  bool saw_throttle = false;
  for (const auto& epoch_actions : baseline.actions) {
    for (const ValkyrieMonitor::Action action : epoch_actions) {
      saw_throttle |= action == ValkyrieMonitor::Action::kThrottled;
    }
  }
  ASSERT_TRUE(saw_throttle) << label;

  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(baseline, run_engine(detector, threads),
                     std::string(label) + ", " + std::to_string(threads) +
                         " workers");
  }
}

TEST(FusedEngine, NewestOnlyVoteRouteMatchesSequentialLoop) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  ASSERT_EQ(detector.plane_sections(), ml::Detector::PlaneSections::kNewestOnly);
  expect_engine_matches_sequential_loop(detector, "svm");
}

TEST(FusedEngine, StatsInferBatchRouteMatchesSequentialLoop) {
  const ml::MlpDetector detector =
      ml::MlpDetector::make_small_ann(training_corpus(), 0x5eed);
  ASSERT_EQ(detector.plane_sections(), ml::Detector::PlaneSections::kStatsOnly);
  expect_engine_matches_sequential_loop(detector, "mlp");
}

TEST(FusedEngine, PerSlotRouteMatchesSequentialLoop) {
  const PerSlotVoteDetector detector;
  ASSERT_EQ(detector.plane_sections(), ml::Detector::PlaneSections::kFull);
  expect_engine_matches_sequential_loop(detector, "per-slot stub");
}

TEST(FusedEngine, StepIsOneDispatchPerEpoch) {
  const ml::SvmDetector svm = ml::SvmDetector::make(training_corpus(), 3);
  const PerSlotVoteDetector per_slot;
  for (const ml::Detector* detector :
       {static_cast<const ml::Detector*>(&svm),
        static_cast<const ml::Detector*>(&per_slot)}) {
    sim::SimSystem sys;
    ValkyrieEngine engine(sys, *detector, 2);
    if (engine.shard_count() < 2) {
      GTEST_SKIP() << "single-core machine: engine clamps to sequential";
    }
    for (std::size_t i = 0; i < 64; ++i) {
      const sim::ProcessId pid = sys.spawn(
          std::make_unique<SigWorkload>(benign_signature(), false));
      engine.attach(pid, ValkyrieConfig{},
                    std::make_unique<SchedulerWeightActuator>());
    }
    sys.reserve_history(32);
    const std::uint64_t before = engine.pool_dispatch_count();
    constexpr std::uint64_t kSteps = 25;
    for (std::uint64_t i = 0; i < kSteps; ++i) engine.step();
    EXPECT_EQ(engine.pool_dispatch_count() - before, kSteps)
        << detector->name() << ": an epoch must cost ONE dispatch";
  }
}

TEST(FusedEngine, SequentialEngineNeverDispatches) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  const sim::ProcessId pid =
      sys.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
  engine.attach(pid, ValkyrieConfig{},
                std::make_unique<SchedulerWeightActuator>());
  engine.run(10);
  EXPECT_EQ(engine.pool_dispatch_count(), 0u);
  EXPECT_EQ(engine.shard_count(), 1u);
}

TEST(FusedEngine, WorkerThreadsClampedToHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) GTEST_SKIP() << "hardware concurrency not detectable";
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  const ValkyrieEngine engine(sys, detector, static_cast<std::size_t>(hw) + 32);
  EXPECT_EQ(engine.shard_count(), static_cast<std::size_t>(hw))
      << "oversubscribed worker requests must be clamped";
}

TEST(FusedEngine, LastActionOfDeadProcessReadsNone) {
  // The step never visits a dead process's attachment; the step-tag
  // staleness check must make that read as an explicit kNone.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  const sim::ProcessId finite =
      sys.spawn(std::make_unique<SigWorkload>(benign_signature(), false, 3));
  const sim::ProcessId endless =
      sys.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
  engine.attach(finite, ValkyrieConfig{},
                std::make_unique<SchedulerWeightActuator>());
  engine.attach(endless, ValkyrieConfig{},
                std::make_unique<CgroupCpuActuator>());
  engine.run(10);
  EXPECT_EQ(sys.exit_reason(finite), sim::ExitReason::kCompleted);
  EXPECT_EQ(engine.last_action(finite), ValkyrieMonitor::Action::kNone);
  EXPECT_TRUE(sys.is_live(endless));
}

}  // namespace
}  // namespace valkyrie::core
