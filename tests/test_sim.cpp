#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plane.hpp"
#include "sim/platform.hpp"
#include "sim/resources.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"
#include "snapshot/image.hpp"
#include "util/serial.hpp"

namespace valkyrie::sim {
namespace {

/// Minimal workload for system tests: progress == cpu share each epoch.
class StubWorkload final : public Workload {
 public:
  explicit StubWorkload(double work_epochs = 1e9, bool attack = false)
      : work_(work_epochs), attack_(attack) {}

  [[nodiscard]] std::string_view name() const override { return "stub"; }
  [[nodiscard]] bool is_attack() const override { return attack_; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "units";
  }
  StepResult run_epoch(const ResourceShares& shares,
                       EpochContext& ctx) override {
    StepResult r;
    r.progress = shares.cpu * memory_progress_multiplier(shares.mem) *
                 fs_progress_multiplier(shares.fs) *
                 network_progress_multiplier(shares.net);
    progress_ += r.progress;
    r.finished = progress_ >= work_;
    r.hpc[hpc::Event::kInstructions] = 100.0 * shares.cpu;
    last_ctx_epoch_ = ctx.epoch;
    return r;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }

  std::uint64_t last_ctx_epoch_ = 0;

 private:
  double work_;
  bool attack_;
  double progress_ = 0.0;
};

TEST(ResourceModel, CpuMultiplierMatchesTableII) {
  EXPECT_DOUBLE_EQ(cpu_progress_multiplier(1.0), 1.0);
  // Table II: 90% -> ~8.7% slowdown, 50% -> ~45.2%, 1% -> ~99.7%.
  EXPECT_NEAR(cpu_progress_multiplier(0.9), 0.913, 0.03);
  EXPECT_NEAR(cpu_progress_multiplier(0.5), 0.548, 0.07);
  EXPECT_NEAR(cpu_progress_multiplier(0.01), 0.0027, 0.001);
  EXPECT_DOUBLE_EQ(cpu_progress_multiplier(0.0), 0.0);
}

TEST(ResourceModel, CpuMultiplierMonotone) {
  double prev = 0.0;
  for (double s = 0.0; s <= 1.0; s += 0.01) {
    const double m = cpu_progress_multiplier(s);
    EXPECT_GE(m, prev - 1e-12);
    prev = m;
  }
}

TEST(ResourceModel, MemoryMultiplierSharpNonLinear) {
  EXPECT_DOUBLE_EQ(memory_progress_multiplier(1.0), 1.0);
  // Table II: 93.6% residency -> >99.9% slowdown.
  EXPECT_LT(memory_progress_multiplier(0.936), 1e-3);
  EXPECT_LT(memory_progress_multiplier(0.894), memory_progress_multiplier(0.936));
  EXPECT_GT(memory_progress_multiplier(0.99), 0.1);
}

TEST(ResourceModel, NetworkMultiplierMatchesTableII) {
  EXPECT_DOUBLE_EQ(network_progress_multiplier(1.0), 1.0);
  EXPECT_NEAR(network_progress_multiplier(0.5), 0.886, 0.01);
  EXPECT_NEAR(network_progress_multiplier(1e-3), 0.251, 0.01);
  EXPECT_NEAR(network_progress_multiplier(1e-6), 2.2e-4, 1e-4);
}

TEST(ResourceModel, FsMultiplierProportional) {
  EXPECT_DOUBLE_EQ(fs_progress_multiplier(0.5), 0.5);
  EXPECT_DOUBLE_EQ(fs_progress_multiplier(1.5), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(fs_progress_multiplier(-1.0), 0.0);
}

TEST(Scheduler, DefaultShareIsNormalizedToOne) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  EXPECT_DOUBLE_EQ(sys.weight_factor(pid), 1.0);
  sys.run_epoch();
  EXPECT_DOUBLE_EQ(sys.effective_shares(pid).cpu, 1.0);
  EXPECT_DOUBLE_EQ(share_from_factor(1.0, 10.0), 1.0);
}

TEST(Scheduler, Eq8DemotionAndPromotion) {
  PlatformProfile platform;
  platform.scheduler.gamma = 0.1;
  SimSystem sys(platform);
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  sys.apply_sched_threat_delta(pid, 1.0);  // s *= 0.9
  EXPECT_NEAR(sys.weight_factor(pid), 0.9, 1e-12);
  sys.apply_sched_threat_delta(pid, 2.0);  // s *= 0.8
  EXPECT_NEAR(sys.weight_factor(pid), 0.72, 1e-12);
  sys.apply_sched_threat_delta(pid, -2.0);  // s *= 1.2
  EXPECT_NEAR(sys.weight_factor(pid), 0.864, 1e-12);
}

TEST(Scheduler, FloorAndCeiling) {
  const SchedulerConfig cfg;
  EXPECT_DOUBLE_EQ(threat_step_factor(1.0, 1000.0, cfg),
                   cfg.min_share_fraction);
  EXPECT_DOUBLE_EQ(threat_step_factor(cfg.min_share_fraction, -1e9, cfg),
                   1.0);
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  sys.apply_sched_threat_delta(pid, 1000.0);
  EXPECT_DOUBLE_EQ(sys.weight_factor(pid), cfg.min_share_fraction);
  sys.apply_sched_threat_delta(pid, -1e9);
  EXPECT_DOUBLE_EQ(sys.weight_factor(pid), 1.0);
}

TEST(Scheduler, ResetRestoresDefault) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  sys.apply_sched_threat_delta(pid, 5.0);
  sys.reset_sched_weight(pid);
  EXPECT_DOUBLE_EQ(sys.weight_factor(pid), 1.0);
}

TEST(Scheduler, DemotedShareIsRelativeToDefaultWeight) {
  // Eq. 7 over two live processes plus the 9 background units, with one
  // demoted to 0.5: its share is measured against the share it would get
  // at default weight, while the untouched one reads exactly 1.0.
  SimSystem sys;
  const ProcessId a = sys.spawn(std::make_unique<StubWorkload>());
  const ProcessId b = sys.spawn(std::make_unique<StubWorkload>());
  sys.apply_sched_threat_delta(b, 5.0);  // factor 0.5 under default gamma
  sys.run_epoch();
  const double total = 9.0 + 1.0 + 0.5;
  EXPECT_DOUBLE_EQ(sys.effective_shares(a).cpu, 1.0);
  EXPECT_EQ(sys.effective_shares(b).cpu, share_from_factor(0.5, total));
  EXPECT_DOUBLE_EQ(share_from_factor(0.5, total),
                   (0.5 / total) / (1.0 / (total - 0.5 + 1.0)));
  EXPECT_LT(sys.effective_shares(b).cpu, 1.0);
}

TEST(Scheduler, NaNThreatDeltaIsRefused) {
  // It would pass Eq. 8's clamp and zero every live process's share.
  SimSystem sys;
  const ProcessId a = sys.spawn(std::make_unique<StubWorkload>());
  const ProcessId b = sys.spawn(std::make_unique<StubWorkload>());
  EXPECT_THROW(
      sys.apply_sched_threat_delta(b, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_DOUBLE_EQ(sys.weight_factor(b), 1.0);
  sys.run_epoch();
  EXPECT_DOUBLE_EQ(sys.effective_shares(a).cpu, 1.0);
  EXPECT_DOUBLE_EQ(sys.effective_shares(b).cpu, 1.0);
}

TEST(Scheduler, UnknownPidThrows) {
  SimSystem sys;
  EXPECT_THROW((void)sys.weight_factor(7), std::out_of_range);
  EXPECT_THROW(sys.apply_sched_threat_delta(7, 1.0), std::out_of_range);
  EXPECT_THROW(sys.reset_sched_weight(7), std::out_of_range);
}

TEST(Scheduler, NonPositiveMinShareRejected) {
  PlatformProfile platform;
  platform.scheduler.min_share_fraction = 0.0;
  EXPECT_THROW(SimSystem{platform}, std::invalid_argument);
  platform.scheduler.min_share_fraction = -0.01;
  EXPECT_THROW(SimSystem{platform}, std::invalid_argument);
}

TEST(System, SpawnRunProgress) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  sys.run_epochs(5);
  EXPECT_EQ(sys.current_epoch(), 5u);
  EXPECT_EQ(sys.epochs_run(pid), 5u);
  EXPECT_NEAR(sys.workload(pid).total_progress(), 5.0, 1e-9);
  EXPECT_EQ(sys.sample_history(pid).size(), 5u);
  EXPECT_DOUBLE_EQ(sys.elapsed_ms(), 500.0);
}

TEST(System, CgroupCpuCapReducesProgress) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  sys.set_cgroup_caps(pid, 0.5, std::nullopt, std::nullopt, std::nullopt);
  sys.run_epoch();
  EXPECT_DOUBLE_EQ(sys.effective_shares(pid).cpu, 0.5);
  EXPECT_NEAR(sys.last_progress(pid), 0.5, 1e-9);
}

TEST(System, SchedulerDemotionReducesEffectiveShare) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  sys.apply_sched_threat_delta(pid, 5.0);
  sys.run_epoch();
  EXPECT_LT(sys.effective_shares(pid).cpu, 1.0);
  sys.reset_sched_weight(pid);
  sys.run_epoch();
  EXPECT_NEAR(sys.effective_shares(pid).cpu, 1.0, 1e-9);
}

TEST(System, EffectiveCpuIsMinOfSchedulerAndCgroup) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  sys.set_cgroup_caps(pid, 0.3, std::nullopt, std::nullopt, std::nullopt);
  sys.apply_sched_threat_delta(pid, 1.0);  // scheduler at ~0.9
  sys.run_epoch();
  EXPECT_NEAR(sys.effective_shares(pid).cpu, 0.3, 1e-9);
}

TEST(System, KillStopsExecution) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  sys.run_epoch();
  sys.kill(pid);
  EXPECT_FALSE(sys.is_live(pid));
  EXPECT_EQ(sys.exit_reason(pid), ExitReason::kKilled);
  sys.run_epoch();
  EXPECT_EQ(sys.epochs_run(pid), 1u);  // no further execution
}

TEST(System, NaturalCompletion) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>(3.0));
  sys.run_epochs(10);
  EXPECT_EQ(sys.exit_reason(pid), ExitReason::kCompleted);
  EXPECT_EQ(sys.epochs_run(pid), 3u);
}

TEST(System, ClearCgroupCapsRestoresDefaults) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>());
  sys.set_cgroup_caps(pid, 0.1, 0.9, 0.5, 0.2);
  sys.clear_cgroup_caps(pid);
  EXPECT_DOUBLE_EQ(sys.cgroup_caps(pid).cpu, 1.0);
  EXPECT_DOUBLE_EQ(sys.cgroup_caps(pid).mem, 1.0);
  EXPECT_DOUBLE_EQ(sys.cgroup_caps(pid).net, 1.0);
  EXPECT_DOUBLE_EQ(sys.cgroup_caps(pid).fs, 1.0);
}

TEST(System, InvalidPidThrows) {
  SimSystem sys;
  EXPECT_THROW((void)sys.is_live(3), std::out_of_range);
  EXPECT_THROW(sys.kill(3), std::out_of_range);
  EXPECT_THROW(sys.spawn(nullptr), std::invalid_argument);
}

TEST(System, LiveProcessList) {
  SimSystem sys;
  const ProcessId a = sys.spawn(std::make_unique<StubWorkload>());
  const ProcessId b = sys.spawn(std::make_unique<StubWorkload>());
  EXPECT_EQ(sys.live_processes().size(), 2u);
  sys.kill(a);
  const std::span<const ProcessId> live = sys.live_processes();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0], b);
}

TEST(System, LiveProcessListTracksCompletionAndSpawn) {
  SimSystem sys;
  const ProcessId a = sys.spawn(std::make_unique<StubWorkload>(2.0));
  const ProcessId b = sys.spawn(std::make_unique<StubWorkload>());
  sys.run_epochs(5);  // `a` completes after 2 epochs
  ASSERT_EQ(sys.live_processes().size(), 1u);
  EXPECT_EQ(sys.live_processes()[0], b);
  const ProcessId c = sys.spawn(std::make_unique<StubWorkload>());
  const std::span<const ProcessId> live = sys.live_processes();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], b);
  EXPECT_EQ(live[1], c);
  EXPECT_EQ(sys.exit_reason(a), ExitReason::kCompleted);
}

TEST(System, ThrowingWorkloadDoesNotStaleTheLiveList) {
  // One process completes in the same epoch another throws: the epoch does
  // not complete, but the live list must still drop the finished process,
  // or a retry would re-execute its workload.
  class ThrowingWorkload final : public Workload {
   public:
    [[nodiscard]] std::string_view name() const override { return "throw"; }
    [[nodiscard]] bool is_attack() const override { return false; }
    [[nodiscard]] std::string_view progress_units() const override {
      return "units";
    }
    StepResult run_epoch(const ResourceShares&, EpochContext& ctx) override {
      if (ctx.epoch >= 2) throw std::runtime_error("workload failure");
      return {};
    }
    [[nodiscard]] double total_progress() const override { return 0.0; }
  };

  SimSystem sys;
  const ProcessId completes = sys.spawn(std::make_unique<StubWorkload>(3.0));
  const ProcessId throws = sys.spawn(std::make_unique<ThrowingWorkload>());
  sys.run_epochs(2);
  const std::uint64_t epoch_before = sys.current_epoch();
  EXPECT_THROW(sys.run_epoch(), std::runtime_error);
  EXPECT_EQ(sys.current_epoch(), epoch_before);  // epoch did not complete
  // `completes` ran its 3rd and final epoch before the throw; it must be
  // off the live list even though the epoch aborted.
  EXPECT_EQ(sys.exit_reason(completes), ExitReason::kCompleted);
  for (const ProcessId pid : sys.live_processes()) {
    EXPECT_NE(pid, completes);
  }
  EXPECT_TRUE(sys.is_live(throws));
}

TEST(System, RetiredProcessKeepsObservableState) {
  // The SoA hot core recycles a process's slot when it dies; every
  // pid-addressed observer must keep returning the state it died with.
  SimSystem sys;
  const ProcessId victim = sys.spawn(std::make_unique<StubWorkload>());
  const ProcessId survivor = sys.spawn(std::make_unique<StubWorkload>());
  sys.set_cgroup_caps(victim, 0.4, 0.9, std::nullopt, std::nullopt);
  sys.run_epochs(3);
  const hpc::HpcSample last = sys.last_sample(victim);
  const double progress = sys.last_progress(victim);
  const ResourceShares eff = sys.effective_shares(victim);

  sys.kill(victim);

  EXPECT_EQ(sys.exit_reason(victim), ExitReason::kKilled);
  EXPECT_DOUBLE_EQ(sys.cgroup_caps(victim).cpu, 0.4);
  EXPECT_DOUBLE_EQ(sys.cgroup_caps(victim).mem, 0.9);
  EXPECT_EQ(sys.last_sample(victim).counts, last.counts);
  EXPECT_DOUBLE_EQ(sys.last_progress(victim), progress);
  EXPECT_DOUBLE_EQ(sys.effective_shares(victim).cpu, eff.cpu);
  EXPECT_EQ(sys.epochs_run(victim), 3u);
  EXPECT_EQ(sys.sample_history(victim).size(), 3u);
  EXPECT_EQ(sys.window_summary(victim).count, 3u);
  EXPECT_EQ(sys.window_accumulator(victim).count(), 3u);

  // The survivor's slot moved down; its pid-addressed state is untouched
  // and further epochs only advance the survivor.
  sys.run_epochs(2);
  EXPECT_EQ(sys.epochs_run(victim), 3u);
  EXPECT_EQ(sys.epochs_run(survivor), 5u);
  EXPECT_EQ(sys.sample_history(survivor).size(), 5u);
}

TEST(System, PidSlotRemapSurvivesMixedExitsAndSpawns) {
  // Stable compaction keeps live slots in ascending pid order through an
  // arbitrary mix of kills, completions and respawns.
  SimSystem sys;
  std::vector<ProcessId> pids;
  for (int i = 0; i < 6; ++i) {
    // pids 1 and 4 complete naturally after 2 epochs.
    const double work = (i == 1 || i == 4) ? 2.0 : 1e9;
    pids.push_back(sys.spawn(std::make_unique<StubWorkload>(work)));
  }
  sys.kill(pids[3]);
  sys.run_epochs(4);  // pids 1 and 4 complete after 2 epochs

  std::span<const ProcessId> live = sys.live_processes();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0], pids[0]);
  EXPECT_EQ(live[1], pids[2]);
  EXPECT_EQ(live[2], pids[5]);
  EXPECT_EQ(sys.exit_reason(pids[1]), ExitReason::kCompleted);
  EXPECT_EQ(sys.exit_reason(pids[3]), ExitReason::kKilled);
  for (const ProcessId pid : live) {
    EXPECT_TRUE(sys.is_live(pid));
    EXPECT_EQ(sys.epochs_run(pid), 4u);
    EXPECT_EQ(sys.sample_history(pid).size(), 4u);
  }
  EXPECT_EQ(sys.epochs_run(pids[1]), 2u);
  EXPECT_EQ(sys.epochs_run(pids[3]), 0u);

  // A new spawn lands at the end of the compacted slot range.
  const ProcessId fresh = sys.spawn(std::make_unique<StubWorkload>());
  live = sys.live_processes();
  ASSERT_EQ(live.size(), 4u);
  EXPECT_EQ(live[3], fresh);
  sys.run_epoch();
  EXPECT_EQ(sys.epochs_run(fresh), 1u);
  EXPECT_EQ(sys.epochs_run(pids[0]), 5u);
}

TEST(System, FusedEpochApiMatchesRunEpoch) {
  // run_epoch is begin_epoch + step_slot* + end_epoch; driving the phases
  // by hand must be indistinguishable.
  SimSystem by_hand;
  SimSystem by_run_epoch;
  for (int i = 0; i < 3; ++i) {
    by_hand.spawn(std::make_unique<StubWorkload>(i == 1 ? 2.0 : 1e9));
    by_run_epoch.spawn(std::make_unique<StubWorkload>(i == 1 ? 2.0 : 1e9));
  }
  for (int e = 0; e < 4; ++e) {
    by_hand.begin_epoch();
    for (std::size_t s = 0; s < by_hand.live_processes().size(); ++s) {
      by_hand.step_slot(s);
    }
    by_hand.end_epoch();
    by_run_epoch.run_epoch();
  }
  EXPECT_EQ(by_hand.current_epoch(), by_run_epoch.current_epoch());
  for (ProcessId pid = 0; pid < 3; ++pid) {
    EXPECT_EQ(by_hand.exit_reason(pid), by_run_epoch.exit_reason(pid));
    EXPECT_EQ(by_hand.epochs_run(pid), by_run_epoch.epochs_run(pid));
    ASSERT_EQ(by_hand.sample_history(pid).size(),
              by_run_epoch.sample_history(pid).size());
    for (std::size_t e = 0; e < by_hand.sample_history(pid).size(); ++e) {
      EXPECT_EQ(by_hand.sample_history(pid)[e].counts,
                by_run_epoch.sample_history(pid)[e].counts);
    }
  }
}

TEST(System, OpenEpochDefersLifecycleToTheBoundary) {
  SimSystem sys;
  const ProcessId first = sys.spawn(std::make_unique<StubWorkload>());
  sys.begin_epoch();
  EXPECT_THROW(sys.begin_epoch(), std::logic_error);

  // Mid-epoch spawn: pid assigned now, liveness committed at the boundary.
  const ProcessId mid = sys.spawn(std::make_unique<StubWorkload>());
  EXPECT_FALSE(sys.is_live(mid));
  EXPECT_EQ(sys.exit_reason(mid), ExitReason::kRunning);
  EXPECT_EQ(sys.live_processes().size(), 1u);  // slot layout frozen

  // Mid-epoch kill of a live slot: the open epoch still runs it in full.
  sys.kill(first);
  EXPECT_TRUE(sys.is_live(first));
  sys.step_slot(0);

  sys.abort_epoch();  // close without counting: deltas commit anyway
  EXPECT_EQ(sys.current_epoch(), 0u);
  EXPECT_FALSE(sys.is_live(first));
  EXPECT_EQ(sys.exit_reason(first), ExitReason::kKilled);
  EXPECT_EQ(sys.epochs_run(first), 1u);  // the aborted epoch's slot ran
  EXPECT_TRUE(sys.is_live(mid));
  ASSERT_EQ(sys.live_processes().size(), 1u);
  EXPECT_EQ(sys.live_processes()[0], mid);
  sys.run_epoch();
  EXPECT_EQ(sys.current_epoch(), 1u);
  EXPECT_EQ(sys.epochs_run(mid), 1u);
}

TEST(System, MidEpochSpawnFirstRunsInTheNextEpoch) {
  // Eq. 3 next-epoch timing for admissions: a process spawned during epoch
  // E commits at E's boundary and first executes in epoch E+1.
  SimSystem sys;
  sys.spawn(std::make_unique<StubWorkload>());
  sys.begin_epoch();
  const ProcessId mid = sys.spawn(std::make_unique<StubWorkload>());
  sys.step_slot(0);
  sys.end_epoch();
  EXPECT_EQ(sys.epochs_run(mid), 0u);
  EXPECT_TRUE(sys.is_live(mid));
  EXPECT_DOUBLE_EQ(sys.weight_factor(mid), 1.0);
  sys.run_epoch();
  EXPECT_EQ(sys.epochs_run(mid), 1u);
  EXPECT_EQ(sys.sample_history(mid).size(), 1u);
}

TEST(System, StateConfiguredWhilePendingSurvivesTheAdmission) {
  // Caps and scheduler weights set between a mid-epoch spawn and its
  // boundary commit must apply from the process's first epoch — not be
  // silently reset by the admission.
  SimSystem sys;
  sys.spawn(std::make_unique<StubWorkload>());
  sys.begin_epoch();
  const ProcessId mid = sys.spawn(std::make_unique<StubWorkload>());
  sys.set_cgroup_caps(mid, 0.25, std::nullopt, std::nullopt, std::nullopt);
  sys.apply_sched_threat_delta(mid, 5.0);  // factor 0.5 under default gamma
  EXPECT_DOUBLE_EQ(sys.cgroup_caps(mid).cpu, 0.25);
  sys.step_slot(0);
  sys.end_epoch();
  EXPECT_DOUBLE_EQ(sys.cgroup_caps(mid).cpu, 0.25);
  EXPECT_NEAR(sys.weight_factor(mid), 0.5, 1e-12);
  sys.run_epoch();
  // The first executed epoch already ran under both restrictions.
  EXPECT_LE(sys.effective_shares(mid).cpu, 0.25);
}

TEST(System, MidEpochKillOfPendingAdmissionCancelsIt) {
  SimSystem sys;
  sys.spawn(std::make_unique<StubWorkload>());
  sys.begin_epoch();
  const ProcessId mid = sys.spawn(std::make_unique<StubWorkload>());
  sys.kill(mid);  // cancelled before it ever ran
  sys.step_slot(0);
  sys.end_epoch();
  EXPECT_FALSE(sys.is_live(mid));
  EXPECT_EQ(sys.exit_reason(mid), ExitReason::kKilled);
  EXPECT_EQ(sys.epochs_run(mid), 0u);
  EXPECT_EQ(sys.live_processes().size(), 1u);
  // Its weight retired with it: a late demotion changes nothing.
  sys.apply_sched_threat_delta(mid, 5.0);
  EXPECT_DOUBLE_EQ(sys.weight_factor(mid), 1.0);
}

TEST(System, MidEpochCompletionBeatsDeferredKill) {
  SimSystem sys;
  const ProcessId pid = sys.spawn(std::make_unique<StubWorkload>(1.0));
  sys.begin_epoch();
  sys.kill(pid);
  sys.step_slot(0);  // runs to natural completion this very epoch
  sys.end_epoch();
  EXPECT_EQ(sys.exit_reason(pid), ExitReason::kCompleted)
      << "a natural completion in the same epoch outranks the deferred kill";
}

TEST(System, RetiredProcessesLeaveTheCfsPool) {
  // A dead process must stop competing for CPU: after its retirement the
  // survivors' shares are computed as if it never existed, while its own
  // last weight stays readable post-mortem.
  SimSystem sys;
  const ProcessId a = sys.spawn(std::make_unique<StubWorkload>());
  const ProcessId b = sys.spawn(std::make_unique<StubWorkload>());
  sys.run_epoch();
  sys.apply_sched_threat_delta(b, 5.0);  // demote b, then kill it
  const double demoted = sys.weight_factor(b);
  EXPECT_LT(demoted, 1.0);
  sys.kill(b);
  sys.run_epoch();
  EXPECT_FALSE(sys.is_live(b));
  EXPECT_DOUBLE_EQ(sys.weight_factor(b), demoted)
      << "the retired weight keeps answering with the final factor";
  // Late commands against the dead pid must not resurrect its weight.
  sys.apply_sched_threat_delta(b, 1.0);
  sys.reset_sched_weight(b);
  EXPECT_FALSE(sys.is_live(b));
  EXPECT_DOUBLE_EQ(sys.weight_factor(b), demoted);
  // With only `a` live (weight 1.0), its normalized share is exactly 1.
  sys.run_epoch();
  EXPECT_DOUBLE_EQ(sys.effective_shares(a).cpu, 1.0);
}

TEST(System, ReserveAndRecyclingKeepChurnBounded) {
  SimSystem sys;
  sys.reserve(64);
  sys.enable_history_recycling();
  std::vector<ProcessId> pids;
  for (int i = 0; i < 4; ++i) {
    pids.push_back(sys.spawn(std::make_unique<StubWorkload>()));
  }
  sys.run_epochs(3);
  sys.kill(pids[1]);
  sys.run_epoch();
  // The recycled pid keeps its scalar snapshot but loses the heavy state.
  EXPECT_EQ(sys.exit_reason(pids[1]), ExitReason::kKilled);
  EXPECT_EQ(sys.epochs_run(pids[1]), 3u);
  EXPECT_TRUE(sys.sample_history(pids[1]).empty());
  EXPECT_THROW((void)sys.workload(pids[1]), std::logic_error);
  EXPECT_DOUBLE_EQ(sys.last_progress(pids[1]), 1.0);
  // A fresh spawn inherits the donated history buffer's capacity.
  const ProcessId fresh = sys.spawn(std::make_unique<StubWorkload>());
  sys.run_epoch();
  EXPECT_EQ(sys.sample_history(fresh).size(), 1u);
  EXPECT_TRUE(sys.is_live(fresh));
}

// --- Slot compaction against a pid-keyed oracle -----------------------------
//
// The engine suites compare against a loop over the same SimSystem, so a
// wrong run boundary in the compaction would sit on both sides. These
// tests check each pass against what it must do per pid instead: capture
// the state before the pass, then require every survivor unchanged at its
// new slot, every retired pid's retirement snapshot equal to its last slot
// values, and the pid -> slot table and live list consistent.

/// Snapshot-capable workload whose counts and progress come from the
/// slot's own stream, so every slot carries distinct state. Completes
/// after `lifetime` epochs.
class DrawingWorkload final : public Workload {
 public:
  explicit DrawingWorkload(std::uint64_t lifetime) : lifetime_(lifetime) {}

  [[nodiscard]] std::string_view name() const override { return "drawing"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "units";
  }
  StepResult run_epoch(const ResourceShares& shares,
                       EpochContext& ctx) override {
    StepResult r;
    r.progress = shares.cpu * ctx.rng->uniform();
    for (double& c : r.hpc.counts) c = 1e6 * (1.0 + ctx.rng->uniform());
    progress_ += r.progress;
    r.finished = ++ran_ >= lifetime_;
    return r;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }
  [[nodiscard]] std::string_view snapshot_type() const override {
    return "test.drawing";
  }
  void snapshot_save(util::ByteWriter& out) const override {
    out.u64(lifetime_);
    out.u64(ran_);
  }
  [[nodiscard]] std::uint64_t ran() const noexcept { return ran_; }

 private:
  std::uint64_t lifetime_;
  std::uint64_t ran_ = 0;
  double progress_ = 0.0;
};

constexpr std::size_t kOracleProcs = 40;
constexpr std::uint64_t kOracleWarmup = 3;
constexpr std::uint32_t kRetiredSlot = 0xffffffffu;

/// Sensor faults, so the quarantine streaks differ between slots too.
const fault::FaultPlane& oracle_faults() {
  static const fault::FaultPlane plane = [] {
    fault::FaultPlane p(0x0dac1e);
    p.sensor.dropout_rate = 0.15;
    p.sensor.nan_rate = 0.25;
    p.sensor.feature_fraction = 0.5;
    return p;
  }();
  return plane;
}

/// 40 processes with distinct cgroup caps under sensor faults, run for a
/// few epochs. Slots in `finishing` complete in the first epoch after the
/// warmup.
void build_oracle_world(SimSystem& sys, bool plane,
                        const std::vector<std::size_t>& finishing = {}) {
  if (plane) sys.enable_feature_plane(ml::Detector::PlaneSections::kFull);
  sys.arm_sensor_faults(&oracle_faults());
  for (std::size_t i = 0; i < kOracleProcs; ++i) {
    const bool finishes =
        std::find(finishing.begin(), finishing.end(), i) != finishing.end();
    const ProcessId pid = sys.spawn(std::make_unique<DrawingWorkload>(
        finishes ? kOracleWarmup + 1 : 1u << 30));
    sys.set_cgroup_caps(pid, 0.3 + 0.015 * static_cast<double>(i),
                        i % 3 == 0 ? std::optional<double>(0.8) : std::nullopt,
                        i % 5 == 0 ? std::optional<double>(0.6) : std::nullopt,
                        std::nullopt);
  }
  sys.run_epochs(kOracleWarmup);
}

/// The state the pid-addressed observers report, however it is stored.
struct Observed {
  ResourceShares cgroup;
  ResourceShares effective;
  hpc::HpcSample last_sample;
  ml::WindowAccumulator::State accum;
  double last_progress = 0.0;
  std::uint64_t epochs_run = 0;
  std::uint8_t exit = 0;
};

Observed observe(const SimSystem& sys, ProcessId pid) {
  return {sys.cgroup_caps(pid),
          sys.effective_shares(pid),
          sys.last_sample(pid),
          sys.window_accumulator(pid).state(),
          sys.last_progress(pid),
          sys.epochs_run(pid),
          static_cast<std::uint8_t>(sys.exit_reason(pid))};
}

Observed from_slot(const snapshot::SlotImage& s) {
  return {s.cgroup, s.effective, s.last_sample, s.accum,
          s.last_progress, s.epochs_run, s.exit};
}

Observed from_retired(const snapshot::ProcImage& p) {
  return {p.retired_cgroup,      p.retired_effective,
          p.retired_last_sample, p.retired_accum,
          p.retired_last_progress, p.retired_epochs_run,
          p.retired_exit};
}

void expect_shares_eq(const ResourceShares& want, const ResourceShares& got,
                      const std::string& what) {
  EXPECT_EQ(want.cpu, got.cpu) << what;
  EXPECT_EQ(want.mem, got.mem) << what;
  EXPECT_EQ(want.net, got.net) << what;
  EXPECT_EQ(want.fs, got.fs) << what;
}

void expect_observed_eq(const Observed& want, const Observed& got,
                        const std::string& what) {
  expect_shares_eq(want.cgroup, got.cgroup, what + " cgroup");
  expect_shares_eq(want.effective, got.effective, what + " effective");
  EXPECT_EQ(want.last_sample.counts, got.last_sample.counts) << what;
  EXPECT_EQ(want.accum.count, got.accum.count) << what;
  EXPECT_EQ(want.accum.mean, got.accum.mean) << what;
  EXPECT_EQ(want.accum.m2, got.accum.m2) << what;
  EXPECT_EQ(want.accum.newest, got.accum.newest) << what;
  EXPECT_EQ(want.accum.fcount, got.accum.fcount) << what;
  EXPECT_EQ(want.accum.newest_mask, got.accum.newest_mask) << what;
  EXPECT_EQ(want.last_progress, got.last_progress) << what;
  EXPECT_EQ(want.epochs_run, got.epochs_run) << what;
  EXPECT_EQ(want.exit, got.exit) << what;
}

/// The pid-keyed oracle for one compaction pass. `last` is every pid's
/// last slot state before the pass (dead-marked or not); `after` is the
/// image once the pass has run.
void expect_pass_matches_oracle(const std::map<ProcessId, Observed>& last,
                                const snapshot::SystemImage& after,
                                const std::string& label) {
  std::map<ProcessId, const snapshot::ProcImage*> procs;
  for (const snapshot::ProcImage& p : after.procs) procs[p.pid] = &p;
  std::vector<ProcessId> survivors;
  for (const auto& [pid, state] : last) {
    const std::string what = label + " pid " + std::to_string(pid);
    ASSERT_TRUE(procs.count(pid)) << what;
    const snapshot::ProcImage& proc = *procs.at(pid);
    if (state.exit == static_cast<std::uint8_t>(ExitReason::kRunning)) {
      survivors.push_back(pid);
      continue;
    }
    // Retired: the slot is gone and the snapshot holds its last values.
    EXPECT_EQ(proc.slot, kRetiredSlot) << what;
    expect_observed_eq(state, from_retired(proc), what + " retired");
  }
  // Survivors keep ascending pid order and their state, at their new slot.
  ASSERT_EQ(after.slots.size(), survivors.size()) << label;
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const std::string what = label + " slot " + std::to_string(i);
    ASSERT_EQ(after.slots[i].pid, survivors[i]) << what;
    if (i != 0) {
      EXPECT_LT(after.slots[i - 1].pid, after.slots[i].pid) << what;
    }
    expect_observed_eq(last.at(survivors[i]), from_slot(after.slots[i]),
                       what);
  }
  // Every row's slot indexes its own pid.
  std::size_t hot = 0;
  for (const snapshot::ProcImage& p : after.procs) {
    if (p.slot == kRetiredSlot) continue;
    ++hot;
    ASSERT_LT(p.slot, after.slots.size()) << label << " pid " << p.pid;
    EXPECT_EQ(after.slots[p.slot].pid, p.pid) << label << " pid " << p.pid;
  }
  EXPECT_EQ(hot, after.slots.size()) << label;
}

/// After a pass the world keeps running correctly: one more epoch steps
/// each live slot's own workload into its own cold row, and an armed plane
/// carries exactly what window_summary() assembles, although the pass left
/// its columns behind.
void expect_next_epoch_consistent(SimSystem& sys, const std::string& label) {
  sys.begin_epoch();
  const std::span<const ProcessId> live = sys.live_processes();
  for (std::size_t slot = 0; slot < live.size(); ++slot) sys.step_slot(slot);
  if (sys.feature_plane_enabled()) {
    const ml::SummaryMatrixView plane = sys.feature_plane();
    ASSERT_EQ(plane.count, live.size()) << label;
    for (std::size_t slot = 0; slot < live.size(); ++slot) {
      const ml::WindowSummary want = sys.window_summary(live[slot]);
      const ml::WindowSummary got = plane.gather(slot);
      EXPECT_EQ(got.count, want.count) << label << " slot " << slot;
      EXPECT_EQ(got.newest, want.newest) << label << " slot " << slot;
      EXPECT_EQ(got.mean, want.mean) << label << " slot " << slot;
      EXPECT_EQ(got.stddev, want.stddev) << label << " slot " << slot;
    }
  }
  sys.end_epoch();
  for (const ProcessId pid : sys.live_processes()) {
    const auto& w = dynamic_cast<const DrawingWorkload&>(sys.workload(pid));
    EXPECT_EQ(w.ran(), sys.epochs_run(pid)) << label << " pid " << pid;
    const std::vector<hpc::HpcSample>& history = sys.sample_history(pid);
    ASSERT_FALSE(history.empty()) << label << " pid " << pid;
    EXPECT_EQ(history.back().counts, sys.last_sample(pid).counts)
        << label << " pid " << pid;
  }
}

TEST(SlotCompaction, KillPatternsMatchThePidKeyedOracle) {
  std::vector<std::size_t> alternating;
  for (std::size_t s = 1; s < kOracleProcs; s += 2) alternating.push_back(s);
  std::vector<std::size_t> all;
  for (std::size_t s = 0; s < kOracleProcs; ++s) all.push_back(s);
  const std::vector<std::pair<std::string, std::vector<std::size_t>>>
      patterns = {
          {"slot 0", {0}},
          {"last slot", {kOracleProcs - 1}},
          {"adjacent runs", {3, 4, 5, 7, 8, 20, 21, 22, 23, 38}},
          {"alternating", alternating},
          {"all", all},
          {"none", {}},
      };
  for (const bool plane : {false, true}) {
    for (const auto& [name, kills] : patterns) {
      const std::string label =
          name + (plane ? " (plane armed)" : " (no plane)");
      SimSystem sys;
      build_oracle_world(sys, plane);
      const std::vector<ProcessId> live(sys.live_processes().begin(),
                                        sys.live_processes().end());
      for (const std::size_t slot : kills) sys.kill(live[slot]);

      // The state the pass starts from: kills marked, nothing moved yet.
      const snapshot::SystemImage before = sys.snapshot_state();
      ASSERT_EQ(before.retire_pending, !kills.empty()) << label;
      ASSERT_EQ(before.slots.size(), kOracleProcs) << label;
      std::map<ProcessId, Observed> last;
      for (const snapshot::SlotImage& s : before.slots) {
        last[s.pid] = from_slot(s);
      }

      bool sample_streak = false;
      bool feature_streak = false;
      for (const snapshot::SlotImage& s : before.slots) {
        sample_streak |= s.invalid_streak != 0;
        for (const std::uint32_t f : s.feature_streak) feature_streak |= f != 0;
      }
      ASSERT_TRUE(sample_streak && feature_streak)
          << label << ": the faults must reach both kinds of streak";

      (void)sys.live_processes();  // runs the pass
      const snapshot::SystemImage after = sys.snapshot_state();
      EXPECT_FALSE(after.retire_pending) << label;
      expect_pass_matches_oracle(last, after, label);

      // Fields the observers do not expose: the per-slot stream, the
      // quarantine streaks and the cold row travel with the survivor.
      std::map<ProcessId, const snapshot::SlotImage*> slot_before;
      for (const snapshot::SlotImage& s : before.slots) slot_before[s.pid] = &s;
      for (const snapshot::SlotImage& s : after.slots) {
        const snapshot::SlotImage& b = *slot_before.at(s.pid);
        EXPECT_EQ(s.rng, b.rng) << label << " pid " << s.pid;
        EXPECT_EQ(s.invalid_streak, b.invalid_streak) << label;
        EXPECT_EQ(s.feature_streak, b.feature_streak) << label;
      }
      ASSERT_EQ(after.procs.size(), before.procs.size()) << label;
      for (std::size_t i = 0; i < after.procs.size(); ++i) {
        EXPECT_EQ(after.procs[i].workload.payload,
                  before.procs[i].workload.payload)
            << label << " pid " << after.procs[i].pid;
        EXPECT_EQ(after.procs[i].history.size(),
                  before.procs[i].history.size())
            << label << " pid " << after.procs[i].pid;
      }
      // Retired pids leave the CFS pool; survivors stay in it.
      for (std::size_t i = 0; i < after.sched_entries.size(); ++i) {
        const bool retired = after.procs[i].slot == kRetiredSlot;
        EXPECT_EQ(after.sched_entries[i].factor < 0.0, retired)
            << label << " pid " << after.procs[i].pid;
      }
      expect_next_epoch_consistent(sys, label);
    }
  }
}

TEST(SlotCompaction, CompletionAndDeferredKillShareOnePass) {
  // Completions land inside the per-slot phase, where no snapshot can be
  // taken, so the oracle reads the pid-addressed observers between the
  // per-slot phase and end_epoch. Slots 7 and 30 complete; slot 12 gets a
  // deferred kill, and slot 30's deferred kill loses to its completion.
  for (const bool plane : {false, true}) {
    const std::string label = plane ? "plane armed" : "no plane";
    SimSystem sys;
    build_oracle_world(sys, plane, {7, 30});
    const std::vector<ProcessId> live(sys.live_processes().begin(),
                                      sys.live_processes().end());
    sys.begin_epoch();
    sys.kill(live[12]);
    sys.kill(live[30]);
    for (std::size_t slot = 0; slot < live.size(); ++slot) sys.step_slot(slot);
    std::map<ProcessId, Observed> last;
    for (const ProcessId pid : live) last[pid] = observe(sys, pid);
    ASSERT_EQ(last[live[7]].exit,
              static_cast<std::uint8_t>(ExitReason::kCompleted));
    ASSERT_EQ(last[live[30]].exit,
              static_cast<std::uint8_t>(ExitReason::kCompleted));
    // The deferred kill marks its slot at the boundary: the oracle expects
    // the slot values it ran the epoch with, retired as killed.
    last[live[12]].exit = static_cast<std::uint8_t>(ExitReason::kKilled);
    sys.end_epoch();

    const snapshot::SystemImage after = sys.snapshot_state();
    EXPECT_FALSE(after.retire_pending) << label;
    EXPECT_EQ(after.slots.size(), kOracleProcs - 3) << label;
    expect_pass_matches_oracle(last, after, label);
    for (const ProcessId pid : live) {
      expect_observed_eq(last.at(pid), observe(sys, pid),
                         label + " observers, pid " + std::to_string(pid));
    }
    expect_next_epoch_consistent(sys, label);
  }
}

TEST(Platform, ProfilesDiffer) {
  EXPECT_LT(platforms::i9_11900().hpc_noise, platforms::i7_3770().hpc_noise);
  EXPECT_GT(platforms::i7_7700().hpc_noise, platforms::i7_3770().hpc_noise);
  EXPECT_EQ(platforms::i7_3770().epoch_ms, 100.0);
}

}  // namespace
}  // namespace valkyrie::sim
