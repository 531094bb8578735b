// Determinism contract of the epoch-open process lifecycle: a 500-epoch
// engine run whose population churns — mid-run spawns, scheduled kills,
// natural completions, detach and re-attach — must be bit-identical to the
// plain sequential loop of sequential_loop.hpp for any worker count. The
// lifecycle deltas all commit in serial boundary phases, so nothing about
// WHEN a process entered or left may depend on the shard layout.
//
// Also pins the sim-level boundary-commit semantics: operations issued
// while an epoch is open (deferred admission/kill) land in exactly the
// state that issuing them right after the boundary would have produced,
// and a ScenarioDriver script replays bit-identically for any worker
// count.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "sequential_loop.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"

namespace valkyrie::core {
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

/// Signature-driven workload; finishes after `lifetime` epochs (0 = never).
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
      trace.name =
          (trace.malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 25; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

// --- Scripted churn run ------------------------------------------------------

constexpr std::size_t kEpochs = 500;

struct RunResult {
  std::vector<std::size_t> live_after_step;  // per epoch
  // Per ever-spawned pid, captured after the run.
  std::vector<sim::ExitReason> exits;
  std::vector<std::uint64_t> epochs_run;
  std::vector<double> progress;
  std::vector<double> cpu_caps;
  std::vector<double> sched_factors;  // -1 marks "never entered the pool"
  std::vector<reference::Telemetry> telemetry;
  // Per attached-at-end pid: monitor internals.
  std::vector<double> threats;
  std::vector<std::size_t> measurements;
};

std::unique_ptr<Actuator> scripted_actuator(std::size_t salt) {
  if (salt % 2 == 0) return std::make_unique<SchedulerWeightActuator>();
  return std::make_unique<CgroupCpuActuator>();
}

/// Spawns one scripted process: every 6th is an attack (terminated
/// mid-run by the policy), every 5th benign is finite (completes
/// naturally), every 7th stays unattached.
template <typename Driver>
sim::ProcessId scripted_spawn(sim::SimSystem& sys, Driver& engine,
                              std::size_t ordinal) {
  const bool attack = ordinal % 6 == 1;
  const std::uint64_t lifetime =
      !attack && ordinal % 5 == 2 ? 40 + ordinal % 30 : 0;
  const sim::ProcessId pid = sys.spawn(std::make_unique<SigWorkload>(
      attack ? attack_signature() : benign_signature(), attack, lifetime));
  if (ordinal % 7 != 3) {
    engine.attach(pid, ValkyrieConfig{}, scripted_actuator(ordinal));
  }
  return pid;
}

/// The scripted churn run, against the engine or the sequential loop.
template <typename Driver>
RunResult drive_churn(sim::SimSystem& sys, Driver& engine) {
  sys.reserve(96);

  std::size_t ordinal = 0;
  std::vector<sim::ProcessId> spawned;
  for (std::size_t i = 0; i < 16; ++i) {
    spawned.push_back(scripted_spawn(sys, engine, ordinal++));
  }
  sys.reserve_history(kEpochs);

  RunResult r;
  sim::ProcessId detached_pid = spawned[4];  // attached (4 % 7 != 3)
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    // Mid-run arrivals: two processes every 40 epochs.
    if (epoch % 40 == 25) {
      spawned.push_back(scripted_spawn(sys, engine, ordinal++));
      spawned.push_back(scripted_spawn(sys, engine, ordinal++));
    }
    // Mid-run departures: scheduled kill of the oldest still-live benign
    // process every 60 epochs.
    if (epoch % 60 == 30) {
      for (const sim::ProcessId pid : spawned) {
        if (sys.is_live(pid) && !sys.workload(pid).is_attack()) {
          sys.kill(pid);
          break;
        }
      }
    }
    // Detach mid-run, re-attach 100 epochs later with fresh state.
    if (epoch == 150 && engine.is_attached(detached_pid)) {
      engine.detach(detached_pid);
    }
    if (epoch == 250 && sys.is_live(detached_pid) &&
        !engine.is_attached(detached_pid)) {
      engine.attach(detached_pid, ValkyrieConfig{}, scripted_actuator(0));
    }
    r.live_after_step.push_back(engine.step());
  }

  for (const sim::ProcessId pid : spawned) {
    r.exits.push_back(sys.exit_reason(pid));
    r.epochs_run.push_back(sys.epochs_run(pid));
    r.progress.push_back(sys.workload(pid).total_progress());
    r.cpu_caps.push_back(sys.cgroup_caps(pid).cpu);
    r.sched_factors.push_back(
        sys.is_live(pid) || sys.exit_reason(pid) != sim::ExitReason::kRunning
            ? sys.weight_factor(pid)
            : -1.0);
    r.telemetry.push_back(reference::telemetry(sys, pid));
    if (engine.is_attached(pid)) {
      r.threats.push_back(engine.monitor(pid).threat());
      r.measurements.push_back(engine.monitor(pid).measurements());
    }
  }
  return r;
}

RunResult run_churn(const ml::Detector& detector, std::size_t worker_threads) {
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, worker_threads);
  engine.reserve(96);
  return drive_churn(sys, engine);
}

RunResult run_churn_sequential_loop(const ml::Detector& detector) {
  sim::SimSystem sys;
  reference::SequentialLoop loop(sys, detector);
  return drive_churn(sys, loop);
}

void expect_identical(const RunResult& a, const RunResult& b,
                      std::size_t threads) {
  ASSERT_EQ(a.live_after_step, b.live_after_step) << threads << " workers";
  EXPECT_EQ(a.exits, b.exits) << threads << " workers";
  EXPECT_EQ(a.epochs_run, b.epochs_run) << threads << " workers";
  // Doubles compared exactly: the contract is bit-identical, not close.
  EXPECT_EQ(a.progress, b.progress) << threads << " workers";
  EXPECT_EQ(a.cpu_caps, b.cpu_caps) << threads << " workers";
  EXPECT_EQ(a.sched_factors, b.sched_factors) << threads << " workers";
  EXPECT_EQ(a.threats, b.threats) << threads << " workers";
  EXPECT_EQ(a.measurements, b.measurements) << threads << " workers";
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t p = 0; p < a.telemetry.size(); ++p) {
    reference::expect_same_telemetry(a.telemetry[p], b.telemetry[p],
                                     std::to_string(threads) +
                                         " workers, pid " +
                                         std::to_string(p));
  }
}

TEST(ChurnEngine, ChurningRunMatchesSequentialLoopForAnyWorkerCount) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const RunResult baseline = run_churn_sequential_loop(detector);

  // The scripted run must actually exercise mixed churn outcomes.
  bool saw_kill = false;
  bool saw_completion = false;
  bool saw_survivor = false;
  for (const sim::ExitReason exit : baseline.exits) {
    saw_kill |= exit == sim::ExitReason::kKilled;
    saw_completion |= exit == sim::ExitReason::kCompleted;
    saw_survivor |= exit == sim::ExitReason::kRunning;
  }
  ASSERT_TRUE(saw_kill);
  ASSERT_TRUE(saw_completion);
  ASSERT_TRUE(saw_survivor);
  ASSERT_GT(baseline.exits.size(), 16u) << "mid-run spawns must have landed";

  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(baseline, run_churn(detector, threads), threads);
  }
}

// The SVM exercises the vote/fold batch route; the MLP exercises
// infer_batch. Churn must not break either.
TEST(ChurnEngine, MlpChurningRunMatchesSequentialLoop) {
  const ml::MlpDetector detector =
      ml::MlpDetector::make_small_ann(training_corpus(), 0x5eed);
  const RunResult baseline = run_churn_sequential_loop(detector);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(baseline, run_churn(detector, threads), threads);
  }
}

// --- Sim-level boundary-commit equivalence -----------------------------------

TEST(ChurnEngine, MidEpochLifecycleEqualsBoundaryLifecycle) {
  // Issuing spawn/kill while epoch E is open must land in exactly the
  // state of issuing them immediately after E closed: both commit at the
  // same boundary, before E+1 runs.
  sim::SimSystem mid;
  sim::SimSystem boundary;
  for (int i = 0; i < 6; ++i) {
    mid.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
    boundary.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
  }
  for (std::uint64_t epoch = 0; epoch < 20; ++epoch) {
    const bool spawn_now = epoch % 5 == 2;
    const bool kill_now = epoch % 7 == 3;

    mid.begin_epoch();
    const std::size_t live = mid.live_processes().size();
    for (std::size_t s = 0; s < live; ++s) {
      if (s == live / 2) {
        // Interleave the lifecycle calls between step_slot calls: the
        // deferral must make the position irrelevant.
        if (spawn_now) {
          mid.spawn(
              std::make_unique<SigWorkload>(benign_signature(), false));
        }
        if (kill_now) mid.kill(mid.live_processes()[0]);
      }
      mid.step_slot(s);
    }
    mid.end_epoch();

    boundary.run_epoch();
    if (spawn_now) {
      boundary.spawn(
          std::make_unique<SigWorkload>(benign_signature(), false));
    }
    if (kill_now) boundary.kill(boundary.live_processes()[0]);
  }

  ASSERT_EQ(mid.total_spawned(), boundary.total_spawned());
  ASSERT_EQ(mid.live_processes().size(), boundary.live_processes().size());
  for (sim::ProcessId pid = 0; pid < mid.total_spawned(); ++pid) {
    EXPECT_EQ(mid.exit_reason(pid), boundary.exit_reason(pid)) << pid;
    EXPECT_EQ(mid.epochs_run(pid), boundary.epochs_run(pid)) << pid;
    ASSERT_EQ(mid.sample_history(pid).size(),
              boundary.sample_history(pid).size())
        << pid;
    for (std::size_t e = 0; e < mid.sample_history(pid).size(); ++e) {
      EXPECT_EQ(mid.sample_history(pid)[e].counts,
                boundary.sample_history(pid)[e].counts)
          << pid << " epoch " << e;
    }
  }
}

// --- ScenarioDriver determinism ----------------------------------------------

sim::ScenarioScript small_script() {
  sim::ScenarioScript script;
  script.seed = 0xd1ce;
  script.initial_processes = 24;
  script.arrival_rate = 1.0;
  script.attack_fraction = 0.08;
  script.mean_lifetime = 50;
  script.kill_exit_fraction = 0.5;
  script.campaigns.push_back({.start_epoch = 30,
                              .count = 3,
                              .stagger = 10,
                              .family = sim::AttackFamily::kCryptominer});
  script.bursts.push_back({.epoch = 60, .count = 8});
  script.monitor_config.required_measurements = 10;
  script.recycle_histories = false;  // keep per-pid post-mortems comparable
  return script;
}

struct ScenarioResult {
  sim::ScenarioDriver::Stats stats;
  std::vector<sim::ProcessId> live;
  std::vector<sim::ExitReason> exits;
  std::vector<double> progress;
};

ScenarioResult run_scenario(std::size_t worker_threads, bool recycle) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, worker_threads);
  sim::ScenarioScript script = small_script();
  script.recycle_histories = recycle;
  sim::ScenarioDriver driver(engine, script);
  driver.run(120);

  ScenarioResult out;
  out.stats = driver.stats();
  out.live.assign(sys.live_processes().begin(), sys.live_processes().end());
  for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
    out.exits.push_back(sys.exit_reason(pid));
    if (!recycle) out.progress.push_back(sys.workload(pid).total_progress());
  }
  return out;
}

void expect_same_scenario(const ScenarioResult& a, const ScenarioResult& b,
                          bool compare_progress) {
  EXPECT_EQ(a.stats.spawned, b.stats.spawned);
  EXPECT_EQ(a.stats.attack_spawned, b.stats.attack_spawned);
  EXPECT_EQ(a.stats.driver_kills, b.stats.driver_kills);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.policy_kills, b.stats.policy_kills);
  EXPECT_EQ(a.stats.rejected, b.stats.rejected);
  EXPECT_EQ(a.stats.peak_live, b.stats.peak_live);
  EXPECT_EQ(a.stats.live_epoch_sum, b.stats.live_epoch_sum);
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.exits, b.exits);
  if (compare_progress) {
    EXPECT_EQ(a.progress, b.progress);
  }
}

TEST(ChurnEngine, ScenarioDriverAnchorsDeparturesAtTheCurrentEpoch) {
  // Attaching a driver to a system that already ran must not back-date
  // the standing population's scheduled departures: lifetimes are drawn
  // relative to the CURRENT epoch, so no departure can fire before
  // current_epoch + 1.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector);
  sys.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
  for (int i = 0; i < 50; ++i) engine.step();

  sim::ScenarioScript script;
  script.seed = 0xfeed;
  script.initial_processes = 16;
  script.mean_lifetime = 40;
  script.kill_exit_fraction = 1.0;  // every drawn exit is a scheduled kill
  sim::ScenarioDriver driver(engine, script);
  driver.step();
  EXPECT_EQ(driver.stats().driver_kills, 0u)
      << "departures drawn at construction fired before their lifetimes";
  EXPECT_EQ(driver.stats().spawned, 16u);
}

TEST(ChurnEngine, ScenarioDriverIsBitReproducibleAcrossWorkers) {
  // The driver needs a real engine, so the single-worker run is the
  // baseline here; the suites above pin that one against the sequential
  // loop.
  const ScenarioResult baseline = run_scenario(1, /*recycle=*/false);
  ASSERT_GT(baseline.stats.spawned, 24u);
  ASSERT_GT(baseline.stats.attack_spawned, 0u);
  ASSERT_GT(baseline.stats.driver_kills + baseline.stats.completed, 0u);

  for (const std::size_t threads : {2u, 8u}) {
    const ScenarioResult run = run_scenario(threads, false);
    expect_same_scenario(baseline, run, /*compare_progress=*/true);
  }
  // History recycling changes memory management, never results.
  const ScenarioResult recycled = run_scenario(2, /*recycle=*/true);
  expect_same_scenario(baseline, recycled, /*compare_progress=*/false);
}

}  // namespace
}  // namespace valkyrie::core
