#include <gtest/gtest.h>

#include <memory>

#include "core/responses.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"

namespace valkyrie::core {
namespace {

using ml::Inference;

class UnitWorkload final : public sim::Workload {
 public:
  explicit UnitWorkload(double work = 1e9) : work_(work) {}
  [[nodiscard]] std::string_view name() const override { return "unit"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "units";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext&) override {
    sim::StepResult r;
    r.progress = shares.cpu;
    progress_ += r.progress;
    r.finished = progress_ >= work_;
    r.hpc[hpc::Event::kInstructions] = 100.0;
    return r;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }

 private:
  double work_;
  double progress_ = 0.0;
};

class ConstantDetector final : public ml::Detector {
 public:
  explicit ConstantDetector(Inference value) : value_(value) {}
  [[nodiscard]] std::string_view name() const override { return "const"; }
  [[nodiscard]] Inference infer(
      std::span<const hpc::HpcSample>) const override {
    return value_;
  }

 private:
  Inference value_;
};

struct Fixture {
  sim::SimSystem sys;
  sim::ProcessId pid;
  Fixture() : pid(sys.spawn(std::make_unique<UnitWorkload>())) {}
};

TEST(Responses, NoResponseOnlyCounts) {
  Fixture f;
  NoResponse policy;
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  policy.on_epoch(f.sys, f.pid, Inference::kBenign);
  EXPECT_EQ(policy.detections(), 1u);
  EXPECT_TRUE(f.sys.is_live(f.pid));
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).cpu, 1.0);
}

TEST(Responses, WarningCountsWarnings) {
  Fixture f;
  WarningResponse policy;
  for (int i = 0; i < 3; ++i) {
    policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  }
  EXPECT_EQ(policy.warnings(), 3u);
  EXPECT_TRUE(f.sys.is_live(f.pid));
}

TEST(Responses, TerminateOnFirstKillsImmediately) {
  Fixture f;
  TerminateOnFirstResponse policy;
  policy.on_epoch(f.sys, f.pid, Inference::kBenign);
  EXPECT_TRUE(f.sys.is_live(f.pid));
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  EXPECT_FALSE(f.sys.is_live(f.pid));
}

TEST(Responses, KConsecutiveNeedsStreak) {
  Fixture f;
  KConsecutiveResponse policy(3);
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  policy.on_epoch(f.sys, f.pid, Inference::kBenign);  // streak broken
  EXPECT_TRUE(f.sys.is_live(f.pid));
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  EXPECT_TRUE(f.sys.is_live(f.pid));
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  EXPECT_FALSE(f.sys.is_live(f.pid));
}

TEST(Responses, PriorityReductionAppliesOnceAndSticks) {
  Fixture f;
  PriorityReductionResponse policy(10);
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  const double demoted = f.sys.weight_factor(f.pid);
  EXPECT_LT(demoted, 1.0);
  // Further detections do not escalate; benign epochs do not restore.
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  policy.on_epoch(f.sys, f.pid, Inference::kBenign);
  EXPECT_DOUBLE_EQ(f.sys.weight_factor(f.pid), demoted);
  EXPECT_TRUE(f.sys.is_live(f.pid));  // never terminates (R1 unmet)
}

TEST(Responses, MigrationStallsThenRecovers) {
  Fixture f;
  auto policy = MigrationResponse::core_migration();
  policy->on_epoch(f.sys, f.pid, Inference::kMalicious);
  EXPECT_EQ(policy->migrations(), 1u);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).cpu, 0.0);  // stalled
  // Drain stall + warmup epochs.
  for (int i = 0; i < 4; ++i) {
    policy->on_epoch(f.sys, f.pid, Inference::kBenign);
  }
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).cpu, 1.0);
  EXPECT_TRUE(f.sys.is_live(f.pid));
}

TEST(Responses, SystemMigrationCostlierThanCore) {
  Fixture core_f;
  Fixture sys_f;
  auto core_policy = MigrationResponse::core_migration();
  auto sys_policy = MigrationResponse::system_migration();
  const ConstantDetector detector(Inference::kMalicious);
  const PolicyRunResult core_result =
      run_with_policy(core_f.sys, core_f.pid, detector, *core_policy, 60);
  const PolicyRunResult sys_result =
      run_with_policy(sys_f.sys, sys_f.pid, detector, *sys_policy, 60);
  // Same epochs, more of them wasted by the heavier migration.
  EXPECT_LT(sys_result.total_progress, core_result.total_progress);
}

TEST(Responses, ValkyrieResponseDelegatesToMonitor) {
  Fixture f;
  ValkyrieConfig cfg;
  cfg.required_measurements = 2;
  ValkyrieResponse policy(cfg, std::make_unique<CgroupCpuActuator>());
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  EXPECT_EQ(policy.monitor().state(), ProcessState::kSuspicious);
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  policy.on_epoch(f.sys, f.pid, Inference::kMalicious);
  EXPECT_FALSE(f.sys.is_live(f.pid));
  EXPECT_EQ(policy.detections(), 3u);
}

TEST(Responses, RunWithPolicyReportsCompletion) {
  sim::SimSystem sys;
  const sim::ProcessId pid = sys.spawn(std::make_unique<UnitWorkload>(5.0));
  NoResponse policy;
  const ConstantDetector detector(Inference::kBenign);
  const PolicyRunResult result =
      run_with_policy(sys, pid, detector, policy, 100);
  EXPECT_EQ(result.epochs_to_complete, 5u);
  EXPECT_FALSE(result.terminated);
  EXPECT_NEAR(result.total_progress, 5.0, 1e-9);
}

TEST(Responses, RunWithPolicyReportsTermination) {
  sim::SimSystem sys;
  const sim::ProcessId pid = sys.spawn(std::make_unique<UnitWorkload>());
  TerminateOnFirstResponse policy;
  const ConstantDetector detector(Inference::kMalicious);
  const PolicyRunResult result =
      run_with_policy(sys, pid, detector, policy, 100);
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.epochs_to_complete, 0u);
}

}  // namespace
}  // namespace valkyrie::core
