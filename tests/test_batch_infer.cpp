// Bit-equality contract of the batched detector inference path.
//
// Two layers of guarantees are asserted here:
//
//   1. Detector level: for every shipped detector family, the batch entry
//      points (measurement_votes / infer_batch) over a feature-major plane
//      produce exactly the bits the scalar paths produce column by column —
//      including randomized window lengths, episode resets, empty windows,
//      and arbitrary shard slices of the plane. The plane carries no raw
//      windows, so the scalar reference is the window-free summary.
//
//   2. Engine level: engine runs on the batch route — across vote-based
//      (SVM, accumulated-view statistical), summary-capable (MLP) and
//      newest-only (statistical) detectors — are bit-identical to the
//      plain sequential loop of sequential_loop.hpp for worker counts
//      {1, 2, 8} over 500-epoch runs that mix kills, natural completions
//      and throttles (exercising slot compaction under the feature plane).
//      The plane itself carries exactly the rows the detector declared.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "hpc/hpc.hpp"
#include "ml/gbt.hpp"
#include "ml/lstm.hpp"
#include "ml/mlp.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "ml/window_accumulator.hpp"
#include "sequential_loop.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"

namespace valkyrie::ml {
namespace {

// --- Shared corpus -----------------------------------------------------------

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

TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  TraceSet set;
  for (int label = 0; label < 2; ++label) {
    const hpc::HpcSignature sig =
        label == 1 ? attack_signature() : benign_signature();
    for (int t = 0; t < 8; ++t) {
      LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name =
          (trace.malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 25; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

std::vector<Example> per_measurement_examples() {
  const TraceSet set = training_corpus();
  return flatten(set);
}

// --- Plane fixture -----------------------------------------------------------

/// A hand-built feature plane over `n` randomized processes: per-column
/// window lengths in [0, 40], mixed benign/attack signatures, and every
/// third column suffering a mid-run episode reset — so counts, means and
/// stddevs cover short, long, restarted and empty windows. Column c's
/// scalar reference summary is assembled by the exact streaming machinery
/// the engine uses (WindowAccumulator::summary), without a raw window, as
/// the batch route hands it.
struct PlaneFixture {
  std::size_t n = 0;
  std::size_t stride = 0;
  std::vector<double> plane;  // 3 * kFeatureDim rows x stride
  std::vector<std::size_t> counts;
  std::vector<WindowSummary> scalar;

  [[nodiscard]] SummaryMatrixView view() const {
    SummaryMatrixView v;
    v.newest = plane.data();
    v.mean = plane.data() + hpc::kFeatureDim * stride;
    v.stddev = plane.data() + 2 * hpc::kFeatureDim * stride;
    v.counts = counts.data();
    v.count = n;
    v.stride = stride;
    return v;
  }
};

PlaneFixture make_fixture(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  PlaneFixture fx;
  fx.n = n;
  fx.stride = (n + 7) / 8 * 8;
  fx.plane.assign(3 * hpc::kFeatureDim * fx.stride, 0.0);
  fx.counts.assign(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    const hpc::HpcSignature sig =
        c % 4 == 1 ? attack_signature() : benign_signature();
    const std::size_t len = rng.below(41);  // 0 = empty window
    WindowAccumulator acc;
    for (std::size_t i = 0; i < len; ++i) {
      if (c % 3 == 0 && i == len / 2 && i > 0) {
        // Episode reset mid-run: statistics restart (mirroring a
        // restarted process).
        acc.reset();
      }
      acc.add(sig.sample(rng));
    }
    if (acc.count() > 0) {
      double* col = fx.plane.data() + c;
      acc.store_plane_column(col, col + hpc::kFeatureDim * fx.stride,
                             col + 2 * hpc::kFeatureDim * fx.stride,
                             fx.stride);
    }
    fx.counts[c] = acc.count();
    fx.scalar.push_back(acc.summary());
  }
  return fx;
}

void expect_batch_matches_scalar(const Detector& detector,
                                 const PlaneFixture& fx) {
  const SummaryMatrixView view = fx.view();

  // Plane gather must reproduce the streaming summaries bit-for-bit.
  for (std::size_t c = 0; c < fx.n; ++c) {
    const WindowSummary gathered = view.gather(c);
    ASSERT_EQ(gathered.count, fx.scalar[c].count) << "column " << c;
    if (gathered.count == 0) continue;
    EXPECT_EQ(gathered.newest, fx.scalar[c].newest) << "column " << c;
    EXPECT_EQ(gathered.mean, fx.scalar[c].mean) << "column " << c;
    EXPECT_EQ(gathered.stddev, fx.scalar[c].stddev) << "column " << c;
  }

  // infer_batch == scalar infer(WindowSummary), column by column.
  std::vector<Inference> batch(fx.n, Inference::kBenign);
  detector.infer_batch(view, batch);
  for (std::size_t c = 0; c < fx.n; ++c) {
    EXPECT_EQ(batch[c], detector.infer(fx.scalar[c]))
        << detector.name() << " column " << c << " (count "
        << fx.scalar[c].count << ")";
  }

  // Shard slices must agree with the full-plane sweep (the engine issues
  // one batch call per shard segment).
  const std::size_t cut = fx.n / 3;
  std::vector<Inference> sliced(fx.n, Inference::kBenign);
  detector.infer_batch(view.slice(0, cut), {sliced.data(), cut});
  detector.infer_batch(view.slice(cut, fx.n),
                       {sliced.data() + cut, fx.n - cut});
  EXPECT_EQ(sliced, batch) << detector.name();

  // measurement_votes == scalar measurement_vote on the newest rows.
  if (detector.vote_fraction().has_value()) {
    const FeatureMatrixView votes_view = view.newest_view();
    std::vector<std::uint8_t> votes(fx.n, 0);
    detector.measurement_votes(votes_view, votes);
    hpc::FeatureVec f;
    for (std::size_t c = 0; c < fx.n; ++c) {
      votes_view.gather(c, f);
      EXPECT_EQ(votes[c] != 0, detector.measurement_vote(f))
          << detector.name() << " column " << c;
    }
    std::vector<std::uint8_t> votes_sliced(fx.n, 0);
    detector.measurement_votes(votes_view.slice(0, cut),
                               {votes_sliced.data(), cut});
    detector.measurement_votes(votes_view.slice(cut, fx.n),
                               {votes_sliced.data() + cut, fx.n - cut});
    EXPECT_EQ(votes_sliced, votes) << detector.name();
  }
}

// --- Detector-level bit-equality ---------------------------------------------

TEST(BatchInfer, SmallMlpMatchesScalar) {
  const MlpDetector detector =
      MlpDetector::make_small_ann(training_corpus(), 0x5eed);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_batch_matches_scalar(detector, make_fixture(97, seed));
  }
}

TEST(BatchInfer, LargeMlpMatchesScalar) {
  const MlpDetector detector =
      MlpDetector::make_large_ann(training_corpus(), 0x5eed);
  expect_batch_matches_scalar(detector, make_fixture(97, 4));
  expect_batch_matches_scalar(detector, make_fixture(5, 5));  // < one block
}

TEST(BatchInfer, SvmMatchesScalar) {
  const SvmDetector detector = SvmDetector::make(training_corpus(), 3);
  for (const std::uint64_t seed : {6u, 7u}) {
    expect_batch_matches_scalar(detector, make_fixture(130, seed));
  }
}

TEST(BatchInfer, GbtMatchesScalar) {
  const GbtDetector detector = GbtDetector::make(training_corpus());
  for (const std::uint64_t seed : {8u, 9u}) {
    expect_batch_matches_scalar(detector, make_fixture(300, seed));
  }
}

TEST(BatchInfer, StatDetectorMatchesScalar) {
  StatisticalDetector newest_only;  // vote_window == 1: batch kernel path
  newest_only.fit(per_measurement_examples());
  expect_batch_matches_scalar(newest_only, make_fixture(150, 10));

  // Whole-window accumulated view: vote-based, so the engine folds its
  // measurement_votes kernel and never calls infer_batch on it.
  const StatisticalDetector accumulated = newest_only.accumulated_view();
  expect_batch_matches_scalar(accumulated, make_fixture(150, 11));

  // Benign-only fit: the anomaly (worst-z) score path.
  std::vector<Example> benign;
  for (Example& ex : per_measurement_examples()) {
    if (!ex.malicious) benign.push_back(std::move(ex));
  }
  StatisticalDetector anomaly;
  anomaly.fit(benign);
  expect_batch_matches_scalar(anomaly, make_fixture(150, 12));
}

}  // namespace
}  // namespace valkyrie::ml

// --- Engine-level equality ---------------------------------------------------

namespace valkyrie::core {
namespace {

/// Signature workload with optional finite lifetime (mirrors the engine
/// determinism suite, so batch-route runs hit the same kill/completion mix).
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

constexpr std::size_t kProcs = 24;
constexpr std::size_t kEpochs = 500;

struct RunResult {
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

template <typename Driver>
RunResult drive(sim::SimSystem& sys, Driver& engine) {
  std::vector<sim::ProcessId> pids;
  for (std::size_t i = 0; i < kProcs; ++i) {
    const bool attack = i % 6 == 1;
    const std::uint64_t lifetime = i % 8 == 5 ? 120 + i : 0;
    const hpc::HpcSignature sig = attack ? valkyrie::ml::attack_signature()
                                         : valkyrie::ml::benign_signature();
    const sim::ProcessId pid =
        sys.spawn(std::make_unique<SigWorkload>(sig, attack, lifetime));
    if (i % 11 == 7) continue;  // unattached live process
    std::unique_ptr<Actuator> actuator;
    if (i % 2 == 0) {
      actuator = std::make_unique<SchedulerWeightActuator>();
    } else {
      actuator = std::make_unique<CgroupCpuActuator>();
    }
    engine.attach(pid, ValkyrieConfig{}, std::move(actuator));
    pids.push_back(pid);
  }

  RunResult r;
  r.actions.reserve(kEpochs);
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    engine.step();
    std::vector<ValkyrieMonitor::Action> epoch_actions;
    epoch_actions.reserve(pids.size());
    for (const sim::ProcessId pid : pids) {
      epoch_actions.push_back(engine.last_action(pid));
    }
    r.actions.push_back(std::move(epoch_actions));
  }

  for (const sim::ProcessId pid : pids) {
    r.states.push_back(engine.monitor(pid).state());
    r.threats.push_back(engine.monitor(pid).threat());
    r.measurements.push_back(engine.monitor(pid).measurements());
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
                      std::size_t threads, const char* label) {
  ASSERT_EQ(a.actions.size(), b.actions.size());
  for (std::size_t e = 0; e < a.actions.size(); ++e) {
    ASSERT_EQ(a.actions[e], b.actions[e])
        << label << ", " << threads << " workers, epoch " << e;
  }
  EXPECT_EQ(a.states, b.states) << label << ", " << threads << " workers";
  EXPECT_EQ(a.measurements, b.measurements) << label << ", " << threads;
  EXPECT_EQ(a.exits, b.exits) << label << ", " << threads;
  // Doubles compared exactly: the contract is bit-identical, not close.
  EXPECT_EQ(a.threats, b.threats) << label << ", " << threads;
  EXPECT_EQ(a.progress, b.progress) << label << ", " << threads;
  EXPECT_EQ(a.sched_factors, b.sched_factors) << label << ", " << threads;
  EXPECT_EQ(a.cpu_caps, b.cpu_caps) << label << ", " << threads;
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t p = 0; p < a.telemetry.size(); ++p) {
    reference::expect_same_telemetry(a.telemetry[p], b.telemetry[p],
                                     std::string(label) + ", " +
                                         std::to_string(threads) +
                                         " workers, attachment " +
                                         std::to_string(p));
  }
}

void expect_batch_route_matches_sequential_loop(const ml::Detector& detector,
                                                const char* label) {
  ASSERT_NE(detector.plane_sections(), ml::Detector::PlaneSections::kFull)
      << label << " must take the batch route";
  const RunResult baseline = run_sequential_loop(detector);

  // The run must mix outcomes or the equality proves nothing.
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

  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(baseline, run_engine(detector, threads), threads, label);
  }
}

TEST(BatchedEngine, VoteDetectorMatchesSequentialLoop) {
  const ml::SvmDetector detector =
      ml::SvmDetector::make(valkyrie::ml::training_corpus(), 3);
  expect_batch_route_matches_sequential_loop(detector, "svm");
}

TEST(BatchedEngine, SummaryDetectorMatchesSequentialLoop) {
  const ml::MlpDetector detector =
      ml::MlpDetector::make_small_ann(valkyrie::ml::training_corpus(), 0x5eed);
  expect_batch_route_matches_sequential_loop(detector, "mlp");
}

TEST(BatchedEngine, StatDetectorMatchesSequentialLoop) {
  ml::StatDetectorConfig config;
  config.threshold = 0.5;
  ml::StatisticalDetector detector(config);
  detector.fit(valkyrie::ml::per_measurement_examples());
  expect_batch_route_matches_sequential_loop(detector, "stat-newest");

  const ml::StatisticalDetector accumulated = detector.accumulated_view();
  expect_batch_route_matches_sequential_loop(accumulated, "stat-accumulated");
}

TEST(BatchedEngine, BatchedPathIsOneDispatchPerEpoch) {
  const ml::SvmDetector detector =
      ml::SvmDetector::make(valkyrie::ml::training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 2);
  if (engine.shard_count() < 2) {
    GTEST_SKIP() << "single-core machine: engine clamps to sequential";
  }
  for (std::size_t i = 0; i < 64; ++i) {
    const sim::ProcessId pid = sys.spawn(std::make_unique<SigWorkload>(
        valkyrie::ml::benign_signature(), false));
    engine.attach(pid, ValkyrieConfig{},
                  std::make_unique<SchedulerWeightActuator>());
  }
  sys.reserve_history(32);
  const std::uint64_t before = engine.pool_dispatch_count();
  constexpr std::uint64_t kSteps = 25;
  for (std::uint64_t i = 0; i < kSteps; ++i) engine.step();
  EXPECT_EQ(engine.pool_dispatch_count() - before, kSteps)
      << "batched epoch must cost ONE dispatch";
}

TEST(BatchedEngine, SequentialScheduleRunsAreCounted) {
  // The corrected schedule statistic: a sequential engine reports its
  // logical phase executions (one per epoch) instead of zero.
  const ml::SvmDetector detector =
      ml::SvmDetector::make(valkyrie::ml::training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  for (std::size_t i = 0; i < 4; ++i) {
    const sim::ProcessId pid = sys.spawn(std::make_unique<SigWorkload>(
        valkyrie::ml::benign_signature(), false));
    engine.attach(pid, ValkyrieConfig{},
                  std::make_unique<SchedulerWeightActuator>());
  }
  engine.run(10);
  EXPECT_EQ(engine.pool_dispatch_count(), 0u);
  EXPECT_EQ(engine.schedule_run_count(), 10u);
}

// --- The plane carries exactly the declared rows -----------------------------

/// Spawns `n` endless benign processes, all attached.
void spawn_benign(sim::SimSystem& sys, ValkyrieEngine& engine, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const sim::ProcessId pid = sys.spawn(std::make_unique<SigWorkload>(
        valkyrie::ml::benign_signature(), false));
    engine.attach(pid, ValkyrieConfig{},
                  std::make_unique<SchedulerWeightActuator>());
  }
}

TEST(BatchedEngine, FullDetectorNeverArmsThePlane) {
  // A raw-window model with no batch kernel is served per slot: the system
  // pays for no plane rows at all.
  const ml::LstmDetector detector{ml::Lstm{}};
  ASSERT_EQ(detector.plane_sections(), ml::Detector::PlaneSections::kFull);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 2);
  spawn_benign(sys, engine, 6);
  engine.run(8);
  EXPECT_FALSE(sys.feature_plane_enabled());
}

TEST(BatchedEngine, NewestOnlyPlaneCarriesOnlyNewestRows) {
  const ml::SvmDetector detector =
      ml::SvmDetector::make(valkyrie::ml::training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 2);
  spawn_benign(sys, engine, 6);
  engine.run(4);
  ASSERT_TRUE(sys.feature_plane_enabled());
  const ml::SummaryMatrixView plane = sys.feature_plane();
  EXPECT_NE(plane.newest, nullptr);
  EXPECT_EQ(plane.mean, nullptr);
  EXPECT_EQ(plane.stddev, nullptr);
}

TEST(BatchedEngine, WideningTheArmedSectionsRegrowsThePlane) {
  const ml::SvmDetector detector =
      ml::SvmDetector::make(valkyrie::ml::training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 2);
  spawn_benign(sys, engine, 37);  // ragged against the 8-double padding
  engine.run(5);
  ASSERT_EQ(sys.feature_plane().mean, nullptr);

  // A second driver needing the stats rows widens the plane between
  // epochs; the next epoch must fill the new rows with exactly the bits
  // window_summary() assembles.
  sys.enable_feature_plane(ml::Detector::PlaneSections::kStatsOnly);
  engine.step();
  const ml::SummaryMatrixView plane = sys.feature_plane();
  ASSERT_NE(plane.newest, nullptr);
  ASSERT_NE(plane.mean, nullptr);
  ASSERT_NE(plane.stddev, nullptr);
  const std::span<const sim::ProcessId> live = sys.live_processes();
  ASSERT_EQ(plane.count, live.size());
  for (std::size_t slot = 0; slot < live.size(); ++slot) {
    const ml::WindowSummary want = sys.window_summary(live[slot]);
    const ml::WindowSummary got = plane.gather(slot);
    EXPECT_EQ(got.count, want.count) << "pid " << live[slot];
    EXPECT_EQ(got.newest, want.newest) << "pid " << live[slot];
    EXPECT_EQ(got.mean, want.mean) << "pid " << live[slot];
    EXPECT_EQ(got.stddev, want.stddev) << "pid " << live[slot];
  }
}

}  // namespace
}  // namespace valkyrie::core
