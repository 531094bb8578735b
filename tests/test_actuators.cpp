#include <gtest/gtest.h>

#include <memory>

#include "core/actuator.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"

namespace valkyrie::core {
namespace {

class IdleWorkload final : public sim::Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "idle"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "units";
  }
  sim::StepResult run_epoch(const sim::ResourceShares&,
                            sim::EpochContext&) override {
    return {};
  }
  [[nodiscard]] double total_progress() const override { return 0.0; }
};

struct Fixture {
  sim::SimSystem sys;
  sim::ProcessId pid;

  Fixture() : pid(sys.spawn(std::make_unique<IdleWorkload>())) {}
};

TEST(SchedulerActuator, AppliesEq8ViaScheduler) {
  Fixture f;
  SchedulerWeightActuator act;
  act.apply(f.sys, f.pid, 2.0);
  EXPECT_NEAR(f.sys.weight_factor(f.pid), 0.8, 1e-12);
  act.apply(f.sys, f.pid, -1.0);
  EXPECT_NEAR(f.sys.weight_factor(f.pid), 0.88, 1e-12);
  act.reset(f.sys, f.pid);
  EXPECT_DOUBLE_EQ(f.sys.weight_factor(f.pid), 1.0);
}

TEST(SchedulerActuator, ZeroDeltaIsNoOp) {
  Fixture f;
  SchedulerWeightActuator act;
  act.apply(f.sys, f.pid, 0.0);
  EXPECT_DOUBLE_EQ(f.sys.weight_factor(f.pid), 1.0);
}

TEST(CgroupCpuActuator, PercentagePointStepsWithFloor) {
  Fixture f;
  CgroupCpuActuator act(0.10, 0.01);
  act.apply(f.sys, f.pid, 3.0);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).cpu, 0.7, 1e-12);
  act.apply(f.sys, f.pid, 100.0);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).cpu, 0.01);  // floor
  act.apply(f.sys, f.pid, -2.0);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).cpu, 0.21, 1e-12);
  act.reset(f.sys, f.pid);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).cpu, 1.0);
}

TEST(CgroupCpuActuator, NeverExceedsFullShare) {
  Fixture f;
  CgroupCpuActuator act;
  act.apply(f.sys, f.pid, -10.0);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).cpu, 1.0);
}

TEST(CgroupFsActuator, HalvesAndDoublesPerEvent) {
  Fixture f;
  // Fig. 6b: 7 files/epoch down to 1 file/epoch -> floor 1/7.
  CgroupFsActuator act(0.5, 1.0 / 7.0);
  act.apply(f.sys, f.pid, 1.0);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).fs, 0.5, 1e-12);
  act.apply(f.sys, f.pid, 5.0);  // one event, halves once
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).fs, 0.25, 1e-12);
  act.apply(f.sys, f.pid, 1.0);
  act.apply(f.sys, f.pid, 1.0);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).fs, 1.0 / 7.0, 1e-9);  // floored
  act.apply(f.sys, f.pid, -1.0);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).fs, 2.0 / 7.0, 1e-9);
  act.reset(f.sys, f.pid);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).fs, 1.0);
}

TEST(CgroupMemActuator, StepsResidencyWithFloor) {
  Fixture f;
  CgroupMemActuator act(0.02, 0.85);
  act.apply(f.sys, f.pid, 1.0);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).mem, 0.98, 1e-12);
  act.apply(f.sys, f.pid, 50.0);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).mem, 0.85);
  act.reset(f.sys, f.pid);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).mem, 1.0);
}

TEST(CgroupNetActuator, GeometricStepsWithFloor) {
  Fixture f;
  CgroupNetActuator act(0.5, 1e-6);
  act.apply(f.sys, f.pid, 2.0);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).net, 0.25, 1e-12);
  act.apply(f.sys, f.pid, -1.0);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).net, 0.5, 1e-12);
  act.apply(f.sys, f.pid, 1000.0);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).net, 1e-6);
  act.reset(f.sys, f.pid);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).net, 1.0);
}

TEST(CompositeActuator, AppliesAllParts) {
  Fixture f;
  std::vector<std::unique_ptr<Actuator>> parts;
  parts.push_back(std::make_unique<CgroupCpuActuator>());
  parts.push_back(std::make_unique<CgroupFsActuator>());
  CompositeActuator act(std::move(parts));
  act.apply(f.sys, f.pid, 1.0);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).cpu, 0.9, 1e-12);
  EXPECT_NEAR(f.sys.cgroup_caps(f.pid).fs, 0.5, 1e-12);
  act.reset(f.sys, f.pid);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).cpu, 1.0);
  EXPECT_DOUBLE_EQ(f.sys.cgroup_caps(f.pid).fs, 1.0);
}

// Property: for any delta sequence, caps stay inside [floor, 1].
class ActuatorBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ActuatorBounds, CapsAlwaysInRange) {
  Fixture f;
  util::Rng rng(GetParam());
  CgroupCpuActuator cpu(0.1, 0.01);
  CgroupFsActuator fs(0.5, 0.1);
  CgroupMemActuator mem(0.02, 0.85);
  CgroupNetActuator net(0.5, 1e-6);
  for (int i = 0; i < 300; ++i) {
    const double delta = rng.uniform(-6.0, 6.0);
    cpu.apply(f.sys, f.pid, delta);
    fs.apply(f.sys, f.pid, delta);
    mem.apply(f.sys, f.pid, delta);
    net.apply(f.sys, f.pid, delta);
    const sim::ResourceShares& caps = f.sys.cgroup_caps(f.pid);
    EXPECT_GE(caps.cpu, 0.01);
    EXPECT_LE(caps.cpu, 1.0);
    EXPECT_GE(caps.fs, 0.1 - 1e-12);
    EXPECT_LE(caps.fs, 1.0);
    EXPECT_GE(caps.mem, 0.85);
    EXPECT_LE(caps.mem, 1.0);
    EXPECT_GE(caps.net, 1e-6);
    EXPECT_LE(caps.net, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActuatorBounds,
                         ::testing::Values(1u, 7u, 42u, 1337u));

}  // namespace
}  // namespace valkyrie::core
