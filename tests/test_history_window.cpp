// The declared history window: each detector says how many of the newest
// raw samples it reads (Detector::raw_window), and the system an engine
// drives retains exactly that many per process. The contract:
//   - vote and summary engines (GBT, SVM, MLP) retain nothing, in memory or
//     in snapshots, and decide exactly as a sequential loop whose system
//     keeps the same window;
//   - an engine whose detector reads a finite window (the LSTM's 64 steps,
//     an 8-sample statistical vote) decides exactly as an unbounded run;
//   - catch-up folds what the system still retains and skips the rest, and
//     on an unbounded system is exactly the full catch-up;
//   - a vote-structured terminal detector folds every epoch from attach and
//     lands on the verdicts and state of a lazy, unbounded reference;
//   - snapshots restore and replay byte-identically at any window and any
//     worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/gbt.hpp"
#include "ml/lstm.hpp"
#include "ml/mlp.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "sequential_loop.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie::core {
namespace {

using Action = ValkyrieMonitor::Action;
constexpr std::size_t kWhole = ml::Detector::kWholeWindow;

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

/// Samples the attack signature in alternating phases of `phase` epochs
/// (the rest of the time the benign one), and finishes after `lifetime`
/// epochs (0 = never). phase 0 = always `attack`'s signature.
class SigWorkload final : public sim::Workload {
 public:
  SigWorkload(bool attack, std::uint64_t lifetime = 0, std::uint64_t phase = 0)
      : attack_(attack), lifetime_(lifetime), phase_(phase) {}

  [[nodiscard]] std::string_view name() const override { return "sig"; }
  [[nodiscard]] bool is_attack() const override { return attack_; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    const bool attack_phase =
        phase_ != 0 ? (epochs_ / phase_) % 2 == 0 : attack_;
    sim::StepResult out;
    out.progress = shares.cpu;
    progress_ += out.progress;
    out.hpc = (attack_phase ? attack_signature() : benign_signature())
                  .sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    ++epochs_;
    out.finished = lifetime_ != 0 && epochs_ >= lifetime_;
    return out;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }
  // Capturable (the tests read their engines' images), never restored.
  [[nodiscard]] std::string_view snapshot_type() const override {
    return "test-sig";
  }
  void snapshot_save(util::ByteWriter& out) const override {
    out.u64(epochs_);
  }

 private:
  bool attack_;
  std::uint64_t lifetime_;
  std::uint64_t phase_;
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

ml::StatisticalDetector stat_detector(std::size_t vote_window) {
  ml::StatDetectorConfig config;
  config.threshold = 0.5;
  config.vote_window = vote_window;
  ml::StatisticalDetector detector(config);
  detector.fit(ml::flatten(training_corpus()));
  return detector;
}

/// Forwards every call to `inner` but declares `window` raw samples, so a
/// test picks the system's history window independently of the route.
class DeclaredWindow final : public ml::Detector {
 public:
  DeclaredWindow(const ml::Detector& inner, std::size_t window)
      : inner_(inner), window_(window) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t state_hash() const override {
    return inner_.state_hash();
  }
  [[nodiscard]] std::optional<double> vote_fraction() const override {
    return inner_.vote_fraction();
  }
  [[nodiscard]] ml::Inference infer(
      std::span<const hpc::HpcSample> window) const override {
    return inner_.infer(window);
  }
  [[nodiscard]] ml::Inference infer(
      const ml::WindowSummary& summary) const override {
    return inner_.infer(summary);
  }
  [[nodiscard]] bool measurement_vote(
      std::span<const double> features) const override {
    return inner_.measurement_vote(features);
  }
  void measurement_votes(const ml::FeatureMatrixView& batch,
                         std::span<std::uint8_t> out) const override {
    inner_.measurement_votes(batch, out);
  }
  void infer_batch(const ml::SummaryMatrixView& batch,
                   std::span<ml::Inference> out) const override {
    inner_.infer_batch(batch, out);
  }
  [[nodiscard]] PlaneSections plane_sections() const override {
    return inner_.plane_sections();
  }
  [[nodiscard]] std::size_t raw_window() const override { return window_; }

 private:
  const ml::Detector& inner_;
  std::size_t window_;
};

std::unique_ptr<Actuator> actuator_for(std::size_t ordinal) {
  if (ordinal % 2 == 0) return std::make_unique<SchedulerWeightActuator>();
  return std::make_unique<CgroupCpuActuator>();
}

// --- A churning run against the engine or a reference loop ------------------

struct RunResult {
  // actions[epoch][pid] (kNone while unattached)
  std::vector<std::vector<Action>> actions;
  std::vector<sim::ExitReason> exits;
  std::vector<double> threats;  // per pid; 0 when never attached
  std::vector<ProcessState> states;
  std::vector<reference::Telemetry> telemetry;
};

/// Spawns the next scripted process: every fifth an attack, every fourth a
/// finite benign program, every third a flip-flopping one; all but every
/// sixth attached.
template <typename Driver>
void spawn_scripted(sim::SimSystem& sys, Driver& driver) {
  const std::size_t ordinal = sys.total_spawned();
  const bool attack = ordinal % 5 == 1;
  const std::uint64_t lifetime = ordinal % 4 == 2 ? 30 + ordinal : 0;
  const std::uint64_t phase = !attack && ordinal % 3 == 0 ? 7 : 0;
  const sim::ProcessId pid =
      sys.spawn(std::make_unique<SigWorkload>(attack, lifetime, phase));
  if (ordinal % 6 != 3) {
    driver.attach(pid, ValkyrieConfig{}, actuator_for(ordinal));
  }
}

template <typename Driver>
RunResult churn_run(sim::SimSystem& sys, Driver& driver, std::size_t epochs) {
  for (int i = 0; i < 10; ++i) spawn_scripted(sys, driver);
  RunResult r;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (epoch % 7 == 3) spawn_scripted(sys, driver);
    if (epoch % 11 == 5) {
      for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
        if (sys.is_live(pid) && !sys.workload(pid).is_attack()) {
          sys.kill(pid);
          break;
        }
      }
    }
    driver.step();
    std::vector<Action> row;
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      row.push_back(driver.is_attached(pid) ? driver.last_action(pid)
                                            : Action::kNone);
    }
    r.actions.push_back(std::move(row));
  }
  for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
    r.exits.push_back(sys.exit_reason(pid));
    const bool attached = driver.is_attached(pid);
    r.threats.push_back(attached ? driver.monitor(pid).threat() : 0.0);
    r.states.push_back(attached ? driver.monitor(pid).state()
                                : ProcessState::kNormal);
    r.telemetry.push_back(reference::telemetry(sys, pid));
  }
  return r;
}

/// Equal decisions and equal telemetry, with `b`'s retained samples cut to
/// their newest `window` (a finite-window engine against an unbounded run).
void expect_same_run(const RunResult& a, RunResult b, std::size_t window,
                     const std::string& label) {
  ASSERT_EQ(a.actions.size(), b.actions.size()) << label;
  for (std::size_t e = 0; e < a.actions.size(); ++e) {
    ASSERT_EQ(a.actions[e], b.actions[e]) << label << ", epoch " << e;
  }
  EXPECT_EQ(a.exits, b.exits) << label;
  EXPECT_EQ(a.threats, b.threats) << label;
  EXPECT_EQ(a.states, b.states) << label;
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size()) << label;
  for (std::size_t p = 0; p < b.telemetry.size(); ++p) {
    std::vector<hpc::HpcSample>& retained = b.telemetry[p].retained;
    if (retained.size() > window) {
      retained.erase(retained.begin(),
                     retained.end() - static_cast<std::ptrdiff_t>(window));
    }
    reference::expect_same_telemetry(a.telemetry[p], b.telemetry[p],
                                     label + ", pid " + std::to_string(p));
  }
}

/// The run must exercise throttles and kills or it proves nothing.
void expect_eventful(const RunResult& run, const std::string& label) {
  bool throttled = false;
  for (const auto& row : run.actions) {
    for (const Action action : row) throttled |= action == Action::kThrottled;
  }
  EXPECT_TRUE(throttled) << label;
  bool killed = false;
  bool completed = false;
  for (const sim::ExitReason exit : run.exits) {
    killed |= exit == sim::ExitReason::kKilled;
    completed |= exit == sim::ExitReason::kCompleted;
  }
  EXPECT_TRUE(killed) << label;
  EXPECT_TRUE(completed) << label;
}

TEST(HistoryWindow, VoteAndSummaryEnginesRetainNothing) {
  const ml::GbtDetector gbt = ml::GbtDetector::make(training_corpus());
  const ml::SvmDetector svm = ml::SvmDetector::make(training_corpus(), 3);
  const ml::MlpDetector mlp =
      ml::MlpDetector::make_small_ann(training_corpus(), 0x5eed);
  for (const ml::Detector* detector :
       {static_cast<const ml::Detector*>(&gbt),
        static_cast<const ml::Detector*>(&svm),
        static_cast<const ml::Detector*>(&mlp)}) {
    const std::string label(detector->name());
    ASSERT_EQ(detector->raw_window(), 0u) << label;

    sim::SimSystem sys;
    ValkyrieEngine engine(sys, *detector, 2);
    const RunResult got = churn_run(sys, engine, 100);
    EXPECT_EQ(sys.history_window(), 0u) << label;
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      EXPECT_TRUE(sys.sample_history(pid).empty()) << label << " pid " << pid;
      EXPECT_EQ(sys.sample_history(pid).capacity(), 0u) << label;
    }
    const snapshot::SnapshotImage image = snapshot::capture(engine);
    EXPECT_EQ(image.system.history_window, 0u) << label;
    for (const snapshot::ProcImage& proc : image.system.procs) {
      EXPECT_TRUE(proc.history.empty()) << label << " pid " << proc.pid;
    }

    sim::SimSystem ref_sys;
    reference::SequentialLoop loop(ref_sys, *detector);
    EXPECT_EQ(ref_sys.history_window(), 0u) << label;
    const RunResult want = churn_run(ref_sys, loop, 100);
    expect_eventful(want, label);
    expect_same_run(got, want, 0, label);
  }
}

TEST(HistoryWindow, FiniteWindowEnginesMatchAnUnboundedRun) {
  ml::LstmTrainOptions options;
  options.epochs = 4;
  const ml::LstmDetector lstm =
      ml::LstmDetector::make(training_corpus(), 0x5eed, options);
  const ml::StatisticalDetector stat8 = stat_detector(8);
  ASSERT_EQ(lstm.raw_window(), ml::LstmDetector::kMaxSteps);
  ASSERT_EQ(lstm.raw_window(), 64u);
  ASSERT_EQ(stat8.raw_window(), 8u);
  constexpr std::size_t kEpochs = 200;
  for (const ml::Detector* detector :
       {static_cast<const ml::Detector*>(&lstm),
        static_cast<const ml::Detector*>(&stat8)}) {
    const std::size_t window = detector->raw_window();
    sim::SimSystem ref_sys;
    reference::SequentialLoop loop(ref_sys, *detector);
    ref_sys.set_history_window(kWhole);  // the unbounded reference
    const RunResult want = churn_run(ref_sys, loop, kEpochs);
    expect_eventful(want, std::string(detector->name()));

    for (const std::size_t workers : {1u, 2u, 8u}) {
      const std::string label = std::string(detector->name()) + ", " +
                                std::to_string(workers) + " workers";
      sim::SimSystem sys;
      ValkyrieEngine engine(sys, *detector, workers);
      const RunResult got = churn_run(sys, engine, kEpochs);
      EXPECT_EQ(sys.history_window(), window) << label;
      bool full = false;
      for (const reference::Telemetry& t : got.telemetry) {
        EXPECT_LE(t.retained.size(), window) << label;
        full |= t.retained.size() == window;
      }
      EXPECT_TRUE(full) << label << ": some history must reach the window";
      expect_same_run(got, want, window, label);
    }
  }
}

// --- The skip rule -----------------------------------------------------------

/// The attachment image of `pid` (stream counters as the engine holds them).
snapshot::AttachmentImage attachment_image(const ValkyrieEngine& engine,
                                           sim::ProcessId pid) {
  for (const snapshot::AttachmentImage& att :
       snapshot::capture(engine).engine.attachments) {
    if (att.pid == pid) return att;
  }
  ADD_FAILURE() << "pid " << pid << " not attached";
  return {};
}

constexpr std::size_t kAttachEpoch = 50;

/// Runs `detector`'s engine with one flip-flopping process left unattached
/// for kAttachEpoch epochs, then attached; returns the engine's world.
struct MidRunAttach {
  sim::SimSystem sys;
  std::unique_ptr<ValkyrieEngine> engine;
  sim::ProcessId pid = 0;
  ValkyrieConfig config;

  explicit MidRunAttach(const ml::Detector& detector) {
    engine = std::make_unique<ValkyrieEngine>(sys, detector, 2);
    config.required_measurements = 1000;  // never terminable: a long trace
    for (std::size_t i = 0; i < 6; ++i) {
      const sim::ProcessId other = sys.spawn(std::make_unique<SigWorkload>(
          i % 3 == 0, 0, 0));
      engine->attach(other, ValkyrieConfig{}, actuator_for(i));
    }
    pid = sys.spawn(std::make_unique<SigWorkload>(false, 0, 5));
    for (std::size_t e = 0; e < kAttachEpoch; ++e) engine->step();
    engine->attach(pid, config, std::make_unique<CgroupCpuActuator>());
  }
};

TEST(HistoryWindow, MidRunAttachSkipsWhatTheSystemNoLongerRetains) {
  const ml::SvmDetector svm = ml::SvmDetector::make(training_corpus(), 3);
  const double fraction = *svm.vote_fraction();
  MidRunAttach world(svm);
  ASSERT_EQ(world.sys.history_window(), 0u);

  // The oracle: the vote fraction over the measurements after the attach,
  // fed to a monitor of the same config (plan() is a pure function of the
  // verdicts, so the engine's monitor must track it exactly).
  ValkyrieMonitor oracle(world.config, std::make_unique<CgroupCpuActuator>());
  std::size_t malicious = 0;
  bool saw_malicious = false;
  bool saw_benign = false;
  for (std::size_t k = 1; k <= 80; ++k) {
    world.engine->step();
    ASSERT_TRUE(world.sys.is_live(world.pid));
    malicious += svm.measurement_vote(
        world.sys.window_accumulator(world.pid).newest_features());
    const ml::Inference verdict =
        static_cast<double>(malicious) > fraction * static_cast<double>(k)
            ? ml::Inference::kMalicious
            : ml::Inference::kBenign;
    saw_malicious |= verdict == ml::Inference::kMalicious;
    saw_benign |= verdict == ml::Inference::kBenign;
    (void)oracle.plan(world.pid, verdict);

    const snapshot::AttachmentImage att =
        attachment_image(*world.engine, world.pid);
    ASSERT_EQ(att.stream_counted, k) << "one measurement folded per epoch";
    ASSERT_EQ(att.stream_skipped, kAttachEpoch) << "epoch " << k;
    ASSERT_EQ(att.stream_malicious, malicious) << "epoch " << k;
    ASSERT_EQ(world.engine->monitor(world.pid).threat(), oracle.threat())
        << "epoch " << k;
    ASSERT_EQ(world.engine->monitor(world.pid).state(), oracle.state())
        << "epoch " << k;
  }
  EXPECT_TRUE(saw_malicious);
  EXPECT_TRUE(saw_benign);
}

TEST(HistoryWindow, MidRunAttachOnAnUnboundedSystemCatchesUpInFull) {
  const ml::SvmDetector svm = ml::SvmDetector::make(training_corpus(), 3);
  const DeclaredWindow unbounded(svm, kWhole);
  MidRunAttach world(unbounded);
  ASSERT_EQ(world.sys.history_window(), kWhole);

  world.engine->step();
  const std::vector<hpc::HpcSample>& history =
      world.sys.sample_history(world.pid);
  ASSERT_EQ(history.size(), kAttachEpoch + 1);
  std::size_t malicious = 0;
  hpc::FeatureVec f;
  for (const hpc::HpcSample& sample : history) {
    hpc::to_features(sample, f);
    malicious += svm.measurement_vote(f);
  }
  const snapshot::AttachmentImage att =
      attachment_image(*world.engine, world.pid);
  EXPECT_EQ(att.stream_counted, kAttachEpoch + 1);
  EXPECT_EQ(att.stream_skipped, 0u);
  EXPECT_EQ(att.stream_malicious, malicious);
  EXPECT_GT(malicious, 0u);
}

TEST(HistoryWindow, CatchUpFoldsTheRetainedTailAndSkipsTheRest) {
  const ml::SvmDetector svm = ml::SvmDetector::make(training_corpus(), 3);
  util::Rng rng(0x5c1b);
  ml::WindowAccumulator acc;
  std::vector<hpc::HpcSample> samples;
  for (int i = 0; i < 150; ++i) {
    samples.push_back(
        (i % 4 == 0 ? attack_signature() : benign_signature()).sample(rng));
    acc.add(samples.back());
  }
  // A 40-sample ring, wrapped: [older..., wrap...] is the newest 40.
  const std::span<const hpc::HpcSample> all(samples);
  ml::WindowSummary summary = acc.summary(all.subspan(110, 25));
  summary.window_wrap = all.subspan(135, 15);

  ml::StreamingInference stream;
  (void)stream.infer(svm, summary);
  std::size_t malicious = 0;
  hpc::FeatureVec f;
  for (std::size_t i = 110; i < 150; ++i) {
    hpc::to_features(samples[i], f);
    malicious += svm.measurement_vote(f);
  }
  EXPECT_EQ(stream.counted(), 40u);
  EXPECT_EQ(stream.skipped(), 110u);
  EXPECT_EQ(stream.malicious_count(), malicious);
  EXPECT_TRUE(stream.can_fold(151));
}

// --- Terminal streams fold every epoch ---------------------------------------

/// The lazy, unbounded reference: SequentialLoop's schedule plus a terminal
/// detector consulted only once the monitor is terminable, catching up
/// over the whole retained history at its first query.
class LazyTerminalLoop {
 public:
  LazyTerminalLoop(sim::SimSystem& sys, const ml::Detector& detector,
                   const ml::Detector& terminal)
      : sys_(sys), detector_(detector), terminal_(terminal) {}

  void attach(sim::ProcessId pid, ValkyrieConfig config,
              std::unique_ptr<Actuator> actuator) {
    attached_.emplace(pid, Attachment{ValkyrieMonitor(config,
                                                      std::move(actuator))});
  }
  [[nodiscard]] bool is_attached(sim::ProcessId pid) const {
    return attached_.contains(pid);
  }
  [[nodiscard]] const ValkyrieMonitor& monitor(sim::ProcessId pid) const {
    return attached_.at(pid).monitor;
  }
  [[nodiscard]] Action last_action(sim::ProcessId pid) const {
    return attached_.at(pid).last_action;
  }
  [[nodiscard]] ml::StreamingInference& terminal_stream(sim::ProcessId pid) {
    return attached_.at(pid).terminal_stream;
  }
  /// Terminal verdicts handed to the monitors so far, by kind.
  [[nodiscard]] std::size_t terminal_verdicts(ml::Inference kind) const {
    return kind == ml::Inference::kMalicious ? terminal_malicious_
                                             : terminal_benign_;
  }

  void step() {
    sys_.run_epoch();
    const std::vector<sim::ProcessId> live(sys_.live_processes().begin(),
                                           sys_.live_processes().end());
    for (auto& [pid, a] : attached_) a.last_action = Action::kNone;
    for (const sim::ProcessId pid : live) {
      const auto it = attached_.find(pid);
      if (it == attached_.end()) continue;
      Attachment& a = it->second;
      const ml::WindowSummary summary = sys_.window_summary(pid);
      const ml::Inference inference = a.stream.infer(detector_, summary);
      std::optional<ml::Inference> terminal;
      const ValkyrieMonitor& m = a.monitor;
      if (m.measurements() >= m.config().required_measurements) {
        terminal = a.terminal_stream.infer(terminal_, summary);
        ++(*terminal == ml::Inference::kMalicious ? terminal_malicious_
                                                  : terminal_benign_);
      }
      a.last_action = a.monitor.on_epoch(sys_, pid, inference, terminal);
    }
  }

 private:
  struct Attachment {
    ValkyrieMonitor monitor;
    ml::StreamingInference stream{};
    ml::StreamingInference terminal_stream{};
    Action last_action = Action::kNone;
  };

  sim::SimSystem& sys_;
  const ml::Detector& detector_;
  const ml::Detector& terminal_;
  std::map<sim::ProcessId, Attachment> attached_;
  std::size_t terminal_malicious_ = 0;
  std::size_t terminal_benign_ = 0;
};

/// Attaches every process at spawn with the terminal detector: attacks,
/// flip-floppers (suspicious half the time, so their episodes reach N* and
/// the supermajority view restores them) and plain benign programs.
template <typename Attach>
void spawn_terminal_world(sim::SimSystem& sys, Attach&& attach) {
  const std::size_t ordinal = sys.total_spawned();
  const bool attack = ordinal % 4 == 1;
  const std::uint64_t phase = ordinal % 4 == 2 ? 9 : 0;
  attach(sys.spawn(std::make_unique<SigWorkload>(attack, 0, phase)),
         actuator_for(ordinal));
}

std::vector<std::uint8_t> system_bytes_without_histories(
    snapshot::SystemImage image) {
  for (snapshot::ProcImage& proc : image.procs) proc.history.clear();
  image.history_window = 0;
  snapshot::SnapshotImage wrapper;
  wrapper.system = std::move(image);
  return snapshot::encode(wrapper);
}

TEST(HistoryWindow, TerminalStreamsFoldEveryEpochLikeALazyUnboundedRun) {
  const ml::StatisticalDetector detector = stat_detector(1);
  const ml::StatisticalDetector terminal = detector.accumulated_view();
  ASSERT_EQ(terminal.raw_window(), 0u);
  ASSERT_TRUE(terminal.vote_fraction().has_value());
  constexpr std::size_t kEpochs = 160;
  const ValkyrieConfig config{};

  sim::SimSystem ref_sys;
  LazyTerminalLoop loop(ref_sys, detector, terminal);
  const auto ref_attach = [&](sim::ProcessId pid,
                              std::unique_ptr<Actuator> actuator) {
    loop.attach(pid, config, std::move(actuator));
  };
  for (int i = 0; i < 12; ++i) spawn_terminal_world(ref_sys, ref_attach);
  std::vector<std::vector<Action>> want;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    if (e % 10 == 4) spawn_terminal_world(ref_sys, ref_attach);
    loop.step();
    std::vector<Action> row;
    for (sim::ProcessId pid = 0; pid < ref_sys.total_spawned(); ++pid) {
      row.push_back(loop.last_action(pid));
    }
    want.push_back(std::move(row));
  }
  // Episodes must reach N*, and the terminal view must decide both ways.
  ASSERT_GT(loop.terminal_verdicts(ml::Inference::kMalicious), 0u);
  ASSERT_GT(loop.terminal_verdicts(ml::Inference::kBenign), 0u);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    const std::string label = std::to_string(workers) + " workers";
    sim::SimSystem sys;
    ValkyrieEngine engine(sys, detector, workers);
    const auto attach = [&](sim::ProcessId pid,
                            std::unique_ptr<Actuator> actuator) {
      engine.attach(pid, config, std::move(actuator), &terminal);
    };
    EXPECT_EQ(sys.history_window(), 0u) << label;
    for (int i = 0; i < 12; ++i) spawn_terminal_world(sys, attach);
    for (std::size_t e = 0; e < kEpochs; ++e) {
      if (e % 10 == 4) spawn_terminal_world(sys, attach);
      engine.step();
      for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
        ASSERT_EQ(engine.last_action(pid), want[e][pid])
            << label << ", epoch " << e << ", pid " << pid;
      }
    }
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      EXPECT_EQ(engine.monitor(pid).threat(), loop.monitor(pid).threat())
          << label << ", pid " << pid;
      EXPECT_EQ(engine.monitor(pid).state(), loop.monitor(pid).state())
          << label << ", pid " << pid;
    }
    // The same simulated world, bit for bit, minus the histories only the
    // reference keeps.
    EXPECT_EQ(system_bytes_without_histories(sys.snapshot_state()),
              system_bytes_without_histories(ref_sys.snapshot_state()))
        << label;
    // The same terminal tallies: the lazy stream, caught up now, counts
    // exactly what the engine folded epoch by epoch.
    const snapshot::SnapshotImage image = snapshot::capture(engine);
    for (const snapshot::AttachmentImage& att : image.engine.attachments) {
      if (!ref_sys.is_live(att.pid)) continue;
      ml::StreamingInference& lazy = loop.terminal_stream(att.pid);
      (void)lazy.infer(terminal, ref_sys.window_summary(att.pid));
      EXPECT_EQ(att.terminal_counted, lazy.counted()) << label;
      EXPECT_EQ(att.terminal_malicious, lazy.malicious_count()) << label;
      EXPECT_EQ(att.terminal_skipped, 0u) << label;
    }
  }
}

// --- Restore at windows 0 and 64 ---------------------------------------------

/// Snapshot-supported spawn script (benchmark palette + cryptominers), a
/// pure function of system state.
void scripted_spawn(sim::SimSystem& sys, ValkyrieEngine& engine) {
  const std::size_t ordinal = sys.total_spawned();
  std::unique_ptr<sim::Workload> workload;
  if (ordinal % 6 == 1) {
    attacks::CryptominerConfig config;
    config.seed = 0xabc0 + ordinal;
    workload = std::make_unique<attacks::CryptominerAttack>(config);
  } else {
    static const std::vector<workloads::BenchmarkSpec> palette =
        workloads::all_single_threaded();
    workloads::BenchmarkSpec spec = palette[ordinal % palette.size()];
    spec.epochs_of_work =
        ordinal % 5 == 2 ? static_cast<double>(40 + ordinal % 20) : 1e9;
    workload = std::make_unique<workloads::BenchmarkWorkload>(std::move(spec));
  }
  const sim::ProcessId pid = sys.spawn(std::move(workload));
  engine.attach(pid, ValkyrieConfig{}, actuator_for(ordinal));
}

/// Churn plus a detach at 20 / re-attach at 70 (before the capture at 100)
/// and a detach at 120 / re-attach at 160 (after it), so both the image
/// and the replay carry catch-ups over a partly retained window. Every
/// choice is a function of system state, so a restored world replays it.
void scripted_epoch(sim::SimSystem& sys, ValkyrieEngine& engine) {
  const std::uint64_t epoch = sys.current_epoch();
  if (epoch % 23 == 9) scripted_spawn(sys, engine);
  if (epoch % 37 == 18) {
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      if (sys.is_live(pid) && !sys.workload(pid).is_attack()) {
        sys.kill(pid);
        break;
      }
    }
  }
  const bool detach = epoch == 20 || epoch == 120;
  const bool rejoin = epoch == 70 || epoch == 160;
  for (sim::ProcessId pid = 0; (detach || rejoin) && pid < sys.total_spawned();
       ++pid) {
    if (!sys.is_live(pid) || engine.is_attached(pid) != detach) continue;
    if (detach) {
      engine.detach(pid);
    } else {
      engine.attach(pid, ValkyrieConfig{}, actuator_for(pid));
    }
    break;
  }
  engine.step();
}

TEST(HistoryWindow, RestoreReplaysByteIdenticallyAtWindows0And64) {
  const ml::SvmDetector svm = ml::SvmDetector::make(training_corpus(), 3);
  for (const std::size_t window : {0u, 64u}) {
    const DeclaredWindow detector(svm, window);
    sim::SimSystem golden_sys;
    ValkyrieEngine golden(golden_sys, detector, 2);
    for (int i = 0; i < 10; ++i) scripted_spawn(golden_sys, golden);
    for (int e = 0; e < 100; ++e) scripted_epoch(golden_sys, golden);
    const std::vector<std::uint8_t> mid =
        snapshot::encode(snapshot::capture(golden));
    for (int e = 0; e < 100; ++e) scripted_epoch(golden_sys, golden);
    const std::vector<std::uint8_t> want =
        snapshot::encode(snapshot::capture(golden));

    const snapshot::SnapshotImage image = snapshot::parse(mid);
    EXPECT_EQ(image.system.history_window, window);
    std::size_t longest = 0;
    for (const snapshot::ProcImage& proc : image.system.procs) {
      longest = std::max(longest, proc.history.size());
    }
    EXPECT_EQ(longest, window) << "the rings must be full at capture";
    bool skipped = false;
    for (const snapshot::AttachmentImage& att : image.engine.attachments) {
      skipped |= att.stream_skipped != 0;
    }
    EXPECT_TRUE(skipped) << "the re-attach must have skipped measurements";

    for (const std::size_t workers : {1u, 2u, 8u}) {
      sim::SimSystem sys;
      ValkyrieEngine engine(sys, detector, workers);
      snapshot::restore(image, engine, snapshot::RestoreContext{});
      EXPECT_EQ(mid, snapshot::encode(snapshot::capture(engine)))
          << "window " << window << ", " << workers << " workers";
      for (int e = 0; e < 100; ++e) scripted_epoch(sys, engine);
      EXPECT_EQ(want, snapshot::encode(snapshot::capture(engine)))
          << "window " << window << ", " << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace valkyrie::core
