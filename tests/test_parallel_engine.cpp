// Determinism contract of the sharded engine: for ANY worker count, a run
// must be bit-identical to the sequential engine — monitor states, actions,
// threat indices, retained HPC samples and window state, scheduler
// weights, cgroup caps and exit reasons. Every process owns its Rng and
// window state, shares are computed from a serial snapshot, and actuator
// commands are committed serially in attachment order, so nothing may
// depend on thread interleaving.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/svm.hpp"
#include "sequential_loop.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"
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
/// so runs mix completions into the live-list bookkeeping.
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

RunResult run_engine(std::size_t worker_threads) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, worker_threads);

  std::vector<sim::ProcessId> pids;
  for (std::size_t i = 0; i < kProcs; ++i) {
    // Mostly benign, a few attacks (terminated mid-run) and a few finite
    // benign programs (natural completion mid-run).
    const bool attack = i % 6 == 1;
    const std::uint64_t lifetime = i % 8 == 5 ? 120 + i : 0;
    const hpc::HpcSignature sig =
        attack ? attack_signature() : benign_signature();
    const sim::ProcessId pid =
        sys.spawn(std::make_unique<SigWorkload>(sig, attack, lifetime));
    // Mix actuator families: the scheduler actuator exercises the shared
    // CFS weight map, the cgroup actuator the per-process caps.
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
    epoch_actions.reserve(kProcs);
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

void expect_identical(const RunResult& a, const RunResult& b,
                      std::size_t threads) {
  ASSERT_EQ(a.actions.size(), b.actions.size());
  for (std::size_t e = 0; e < a.actions.size(); ++e) {
    ASSERT_EQ(a.actions[e], b.actions[e]) << threads << " workers, epoch " << e;
  }
  EXPECT_EQ(a.states, b.states) << threads << " workers";
  EXPECT_EQ(a.measurements, b.measurements) << threads << " workers";
  EXPECT_EQ(a.exits, b.exits) << threads << " workers";
  // Doubles compared exactly: the contract is bit-identical, not close.
  EXPECT_EQ(a.threats, b.threats) << threads << " workers";
  EXPECT_EQ(a.progress, b.progress) << threads << " workers";
  EXPECT_EQ(a.sched_factors, b.sched_factors) << threads << " workers";
  EXPECT_EQ(a.cpu_caps, b.cpu_caps) << threads << " workers";
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t p = 0; p < a.telemetry.size(); ++p) {
    reference::expect_same_telemetry(a.telemetry[p], b.telemetry[p],
                                     std::to_string(threads) +
                                         " workers, pid " +
                                         std::to_string(p));
  }
}

TEST(ParallelEngine, ShardedRunsAreBitIdenticalToSequential) {
  const RunResult sequential = run_engine(1);

  // The run must exercise mixed outcomes or the test proves nothing.
  bool saw_kill = false;
  bool saw_completion = false;
  bool saw_survivor = false;
  for (const sim::ExitReason exit : sequential.exits) {
    saw_kill |= exit == sim::ExitReason::kKilled;
    saw_completion |= exit == sim::ExitReason::kCompleted;
    saw_survivor |= exit == sim::ExitReason::kRunning;
  }
  ASSERT_TRUE(saw_kill);
  ASSERT_TRUE(saw_completion);
  ASSERT_TRUE(saw_survivor);
  bool saw_throttle = false;
  for (const auto& epoch_actions : sequential.actions) {
    for (const ValkyrieMonitor::Action action : epoch_actions) {
      saw_throttle |= action == ValkyrieMonitor::Action::kThrottled;
    }
  }
  ASSERT_TRUE(saw_throttle);

  for (const std::size_t threads : {2u, 8u}) {
    const RunResult sharded = run_engine(threads);
    expect_identical(sequential, sharded, threads);
  }
}

TEST(ParallelSim, RunEpochMatchesSequentialBitForBit) {
  // The simulator alone: sharded run_epoch must reproduce the sequential
  // histories and effective shares exactly.
  const auto run = [](util::ThreadPool* pool) {
    sim::SimSystem sys;
    std::vector<sim::ProcessId> pids;
    for (std::size_t i = 0; i < 9; ++i) {
      pids.push_back(sys.spawn(std::make_unique<SigWorkload>(
          i % 3 == 0 ? attack_signature() : benign_signature(), i % 3 == 0,
          i == 4 ? 50 : 0)));
    }
    // Uneven scheduler weights so share computation is non-trivial.
    sys.apply_sched_threat_delta(pids[2], 3.0);
    sys.apply_sched_threat_delta(pids[7], 1.0);
    for (int e = 0; e < 200; ++e) sys.run_epoch(pool);
    std::vector<std::vector<hpc::HpcSample>> histories;
    std::vector<double> shares;
    for (const sim::ProcessId pid : pids) {
      histories.push_back(sys.sample_history(pid));
      shares.push_back(sys.effective_shares(pid).cpu);
    }
    return std::make_pair(histories, shares);
  };

  const auto sequential = run(nullptr);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    const auto sharded = run(&pool);
    EXPECT_EQ(sequential.second, sharded.second) << threads << " threads";
    ASSERT_EQ(sequential.first.size(), sharded.first.size());
    for (std::size_t p = 0; p < sequential.first.size(); ++p) {
      ASSERT_EQ(sequential.first[p].size(), sharded.first[p].size());
      for (std::size_t e = 0; e < sequential.first[p].size(); ++e) {
        ASSERT_EQ(sequential.first[p][e].counts, sharded.first[p][e].counts)
            << threads << " threads, pid " << p << ", epoch " << e;
      }
    }
  }
}

TEST(ParallelEngine, DuplicateAttachRejected) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 2);
  const sim::ProcessId pid =
      sys.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
  engine.attach(pid, ValkyrieConfig{},
                std::make_unique<SchedulerWeightActuator>());
  EXPECT_THROW(engine.attach(pid, ValkyrieConfig{},
                             std::make_unique<SchedulerWeightActuator>()),
               std::invalid_argument);
}

TEST(ParallelEngine, LastActionRequiresAttachment) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  const ValkyrieEngine engine(sys, detector, 2);
  EXPECT_THROW((void)engine.last_action(0), std::out_of_range);
}

}  // namespace
}  // namespace valkyrie::core
