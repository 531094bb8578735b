// Steady-state allocation guard for the engine step: after warm-up
// (histories reserved, command buffers and pool queues sized), one epoch —
// workload execution, HPC capture, window fold, feature-plane fill, batch
// or per-slot inference, monitor decisions, batched actuator commit — must
// perform zero heap allocations, sequentially AND across a worker pool, on
// BOTH routes the step can take: the batch route (a detector declaring
// plane sections) and the per-slot route (a kFull detector). The count
// comes from the replaced operator new in alloc_hooks.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <new>
#include <optional>
#include <string_view>
#include <vector>

#include "alloc_hooks.hpp"
#include "attacks/cryptominer.hpp"
#include "attacks/ransomware.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "fault/fault_plane.hpp"
#include "ml/detector.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"
#include "workloads/benchmarks.hpp"

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

/// Endless signature workload: allocation-free run_epoch.
class SigWorkload final : public sim::Workload {
 public:
  explicit SigWorkload(hpc::HpcSignature sig) : sig_(sig) {}

  [[nodiscard]] std::string_view name() const override { return "sig"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    progress_ += out.progress;
    out.hpc = sig_.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    return out;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }

 private:
  hpc::HpcSignature sig_;
  double progress_ = 0.0;
};

/// Deterministically flapping detector: flags every 7th window state as
/// malicious, driving a steady churn of throttle / restore commands through
/// the per-shard buffers without ever reaching the termination budget. The
/// declared sections pick the route: kFull is served per slot; kNewestOnly
/// arms a newest-only plane and takes one infer_batch call per shard (the
/// default adapter, reading the plane's counts). The declared raw window,
/// when given, overrides the route's default history window.
class FlappingDetector final : public ml::Detector {
 public:
  explicit FlappingDetector(PlaneSections sections,
                            std::optional<std::size_t> window = std::nullopt)
      : sections_(sections), window_(window) {}

  [[nodiscard]] std::string_view name() const override { return "flap"; }
  [[nodiscard]] ml::Inference infer(
      std::span<const hpc::HpcSample> window) const override {
    return window.size() % 7 == 3 ? ml::Inference::kMalicious
                                  : ml::Inference::kBenign;
  }
  [[nodiscard]] ml::Inference infer(
      const ml::WindowSummary& summary) const override {
    return summary.count % 7 == 3 ? ml::Inference::kMalicious
                                  : ml::Inference::kBenign;
  }
  [[nodiscard]] PlaneSections plane_sections() const override {
    return sections_;
  }
  [[nodiscard]] std::size_t raw_window() const override {
    return window_ ? *window_ : Detector::raw_window();
  }

 private:
  PlaneSections sections_;
  std::optional<std::size_t> window_;
};

using Sections = ml::Detector::PlaneSections;
constexpr Sections kPerSlot = Sections::kFull;
constexpr Sections kBatched = Sections::kNewestOnly;

void expect_steady_state_step_does_not_allocate(
    std::size_t worker_threads, Sections route,
    const fault::FaultPlane* plane = nullptr) {
  const FlappingDetector detector(route);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, worker_threads);
  if (plane != nullptr) engine.arm_faults(plane);

  constexpr std::size_t kProcs = 32;
  constexpr std::size_t kWarmup = 32;
  constexpr std::size_t kMeasured = 64;
  for (std::size_t i = 0; i < kProcs; ++i) {
    const sim::ProcessId pid =
        sys.spawn(std::make_unique<SigWorkload>(benign_signature()));
    std::unique_ptr<Actuator> actuator;
    if (i % 2 == 0) {
      actuator = std::make_unique<SchedulerWeightActuator>();
    } else {
      actuator = std::make_unique<CgroupCpuActuator>();
    }
    engine.attach(pid, ValkyrieConfig{}, std::move(actuator));
  }

  sys.reserve_history(kWarmup + kMeasured + 1);
  std::size_t live = 0;
  for (std::size_t i = 0; i < kWarmup; ++i) live = engine.step();
  ASSERT_EQ(live, kProcs);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::size_t actions_seen = 0;
  for (std::size_t i = 0; i < kMeasured; ++i) {
    live = engine.step();
    for (std::size_t p = 0; p < kProcs; ++p) {
      actions_seen += engine.last_action(static_cast<sim::ProcessId>(p)) !=
                      ValkyrieMonitor::Action::kNone;
    }
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after, before)
      << "parallel step allocated with " << worker_threads << " workers";
  EXPECT_EQ(live, kProcs);
  // The flapping detector flags every 7th epoch, so the measured window
  // must actually have driven actuator commands through the commit phase
  // (one throttle and one restore per flap, for every process).
  EXPECT_GE(actions_seen, kMeasured / 7 * 2 * kProcs);
}

TEST(ParallelNoAlloc, SequentialPerSlotStepIsAllocationFreeAfterWarmup) {
  expect_steady_state_step_does_not_allocate(1, kPerSlot);
}

TEST(ParallelNoAlloc, ShardedPerSlotStepIsAllocationFreeAfterWarmup) {
  expect_steady_state_step_does_not_allocate(4, kPerSlot);
}

// The batch route adds the feature-plane fill and the per-shard batch
// detector calls to the hot path; plane, scratch and batch outputs are all
// pre-sized, so the guarantee must hold unchanged.
TEST(ParallelNoAlloc, SequentialBatchedStepIsAllocationFreeAfterWarmup) {
  expect_steady_state_step_does_not_allocate(1, kBatched);
}

TEST(ParallelNoAlloc, ShardedBatchedStepIsAllocationFreeAfterWarmup) {
  expect_steady_state_step_does_not_allocate(4, kBatched);
}

// An armed-but-idle fault plane (all rates zero) routes every epoch through
// the hardened paths — per-(epoch, pid) sensor draws + sample validation,
// guarded inference with streak checks, the retry-aware command commit —
// and none of that may allocate either: fault tolerance is free until a
// fault actually fires.
TEST(ParallelNoAlloc, FaultArmedIdlePerSlotStepIsAllocationFree) {
  const fault::FaultPlane plane(0x1d1e);
  expect_steady_state_step_does_not_allocate(1, kPerSlot, &plane);
}

TEST(ParallelNoAlloc, FaultArmedIdleShardedPerSlotStepIsAllocationFree) {
  const fault::FaultPlane plane(0x1d1e);
  expect_steady_state_step_does_not_allocate(4, kPerSlot, &plane);
}

TEST(ParallelNoAlloc, FaultArmedIdleBatchedStepIsAllocationFree) {
  const fault::FaultPlane plane(0x1d1e);
  expect_steady_state_step_does_not_allocate(1, kBatched, &plane);
}

TEST(ParallelNoAlloc, FaultArmedIdleShardedBatchedStepIsAllocationFree) {
  const fault::FaultPlane plane(0x1d1e);
  expect_steady_state_step_does_not_allocate(4, kBatched, &plane);
}

// Steady-state CHURN: with SimSystem::reserve + ValkyrieEngine::reserve +
// history recycling armed, a full churn epoch — kill one process, spawn a
// replacement (workload pre-built outside the loop, exactly like a real
// driver materialising arrivals), attach it, detach/re-attach another,
// step — performs zero heap allocations: the admission queue, scheduler
// batch ops, retirement pool, attachment table and feature plane are all
// pre-sized.
void expect_steady_state_churn_does_not_allocate(
    std::size_t worker_threads, Sections route,
    std::optional<std::size_t> window = std::nullopt) {
  const FlappingDetector detector(route, window);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, worker_threads);

  // Under a finite window the population lives longer than the ring, so
  // every ring wraps inside the measured epochs.
  const std::size_t kProcs = window && *window != 0 ? *window + 16 : 24;
  // The warmup must outlive the pool-priming transient: the very first
  // cold-pool arrival doubles its history until it first donates (it lives
  // kProcs epochs, so its last regrowth lands before epoch kProcs).
  const std::size_t kWarmup = kProcs + 8;
  constexpr std::size_t kMeasured = 48;
  sys.reserve(kProcs + kWarmup + kMeasured + 8);
  engine.reserve(kProcs + kWarmup + kMeasured + 8);
  sys.enable_history_recycling();

  std::vector<sim::ProcessId> fifo;  // oldest-first churn order
  fifo.reserve(kProcs + kWarmup + kMeasured);
  for (std::size_t i = 0; i < kProcs; ++i) {
    const sim::ProcessId pid =
        sys.spawn(std::make_unique<SigWorkload>(benign_signature()));
    engine.attach(pid, ValkyrieConfig{},
                  std::make_unique<SchedulerWeightActuator>());
    fifo.push_back(pid);
  }

  // Arrivals materialised outside the churn loop: workload/actuator
  // construction is the caller's allocation, not the engine's.
  std::vector<std::unique_ptr<sim::Workload>> workload_stash;
  std::vector<std::unique_ptr<Actuator>> actuator_stash;
  for (std::size_t i = 0; i < kWarmup + kMeasured; ++i) {
    workload_stash.push_back(
        std::make_unique<SigWorkload>(benign_signature()));
    actuator_stash.push_back(std::make_unique<SchedulerWeightActuator>());
  }

  sys.reserve_history(kWarmup + kMeasured + 1);

  // The warmup epochs churn too: the retirement pool only starts donating
  // one epoch after the first death, so a cold pool's very first arrival
  // grows its history from scratch — steady state begins once the
  // kill -> donate -> inherit chain is primed.
  std::size_t before = 0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < kWarmup + kMeasured; ++i) {
    if (i == kWarmup) {
      before = g_allocations.load(std::memory_order_relaxed);
    }
    // 1-in-1-out churn: the oldest process leaves, a fresh one arrives.
    sys.kill(fifo[next]);
    const sim::ProcessId fresh = sys.spawn(std::move(workload_stash[next]));
    engine.attach(fresh, ValkyrieConfig{}, std::move(actuator_stash[next]));
    fifo.push_back(fresh);
    // The dead process's attachment is detached rather than left to
    // accumulate — epoch-boundary lifecycle ops must be allocation-free
    // too.
    engine.detach(fifo[next]);
    ++next;
    const std::size_t live = engine.step();
    ASSERT_EQ(live, kProcs) << "churn must hold the live population";
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after, before)
      << "churn epoch allocated with " << worker_threads << " workers";
  EXPECT_EQ(sys.history_window(), detector.raw_window());
  if (window && *window != 0) {
    // The oldest live process has outlived its ring: it wrapped.
    const sim::ProcessId oldest = sys.live_processes().front();
    EXPECT_EQ(sys.sample_history(oldest).size(), *window);
    EXPECT_FALSE(sys.history_view(oldest).newer.empty());
  }
}

TEST(ParallelNoAlloc, SequentialPerSlotChurnIsAllocationFreeUnderReserve) {
  expect_steady_state_churn_does_not_allocate(1, kPerSlot);
}

TEST(ParallelNoAlloc, ShardedPerSlotChurnIsAllocationFreeUnderReserve) {
  expect_steady_state_churn_does_not_allocate(4, kPerSlot);
}

TEST(ParallelNoAlloc, SequentialBatchedChurnIsAllocationFreeUnderReserve) {
  expect_steady_state_churn_does_not_allocate(1, kBatched);
}

TEST(ParallelNoAlloc, ShardedBatchedChurnIsAllocationFreeUnderReserve) {
  expect_steady_state_churn_does_not_allocate(4, kBatched);
}

// The same churn at the two history windows a declaration can ask for:
// none at all, and a 64-sample ring that wraps in steady state — on both
// routes, sequential and sharded.
TEST(ParallelNoAlloc, ChurnAtWindowZeroIsAllocationFreeOnBothRoutes) {
  for (const Sections route : {kPerSlot, kBatched}) {
    for (const std::size_t workers : {1u, 4u}) {
      expect_steady_state_churn_does_not_allocate(workers, route, 0);
    }
  }
}

TEST(ParallelNoAlloc, ChurnAtWindow64IsAllocationFreeOnBothRoutes) {
  for (const Sections route : {kPerSlot, kBatched}) {
    for (const std::size_t workers : {1u, 4u}) {
      expect_steady_state_churn_does_not_allocate(workers, route, 64);
    }
  }
}

// Retention-armed churn: same 1-in-1-out loop, but with TRUE cold-row
// reclamation switched on — and the reservation sized to the PEAK TRACKED
// population (live + retired-inside-window), NOT to the total number of
// spawns. This is the allocation half of the million-pid contract: rows,
// pid-map buckets, scheduler entries and history buffers all recycle
// through the reclamation path, so unbounded spawning needs only a
// bounded reservation and the steady-state epoch still never allocates.
void expect_retention_churn_does_not_allocate(std::size_t worker_threads,
                                              Sections route) {
  const FlappingDetector detector(route);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, worker_threads);

  constexpr std::size_t kProcs = 24;
  constexpr std::uint64_t kWindow = 4;
  constexpr std::size_t kWarmup = 32;
  constexpr std::size_t kMeasured = 48;
  // Peak tracked = live population + one in-flight admission + the dead
  // cohort parked inside the retention window — a constant, unlike the
  // spawn-total the non-retention variant must reserve for.
  sys.reserve(kProcs + kWindow + 12);
  engine.reserve(kProcs + 12);
  sys.enable_history_recycling();
  sys.enable_retirement_retention(kWindow);

  std::vector<sim::ProcessId> fifo;
  fifo.reserve(kProcs + kWarmup + kMeasured);
  for (std::size_t i = 0; i < kProcs; ++i) {
    const sim::ProcessId pid =
        sys.spawn(std::make_unique<SigWorkload>(benign_signature()));
    engine.attach(pid, ValkyrieConfig{},
                  std::make_unique<SchedulerWeightActuator>());
    fifo.push_back(pid);
  }

  std::vector<std::unique_ptr<sim::Workload>> workload_stash;
  std::vector<std::unique_ptr<Actuator>> actuator_stash;
  for (std::size_t i = 0; i < kWarmup + kMeasured; ++i) {
    workload_stash.push_back(
        std::make_unique<SigWorkload>(benign_signature()));
    actuator_stash.push_back(std::make_unique<SchedulerWeightActuator>());
  }

  sys.reserve_history(kWarmup + kMeasured + 1);

  std::size_t before = 0;
  std::size_t tracked_at_measure_start = 0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < kWarmup + kMeasured; ++i) {
    if (i == kWarmup) {
      before = g_allocations.load(std::memory_order_relaxed);
      tracked_at_measure_start = sys.tracked_processes();
    }
    sys.kill(fifo[next]);
    const sim::ProcessId fresh = sys.spawn(std::move(workload_stash[next]));
    engine.attach(fresh, ValkyrieConfig{}, std::move(actuator_stash[next]));
    fifo.push_back(fresh);
    engine.detach(fifo[next]);
    ++next;
    const std::size_t live = engine.step();
    ASSERT_EQ(live, kProcs) << "churn must hold the live population";
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after, before)
      << "retention churn epoch allocated with " << worker_threads
      << " workers";
  // Reclamation actually ran: the tracked census is pinned at its
  // steady-state value instead of growing by one per epoch.
  EXPECT_EQ(sys.tracked_processes(), tracked_at_measure_start);
  EXPECT_LE(sys.tracked_processes(), kProcs + kWindow + 12);
}

TEST(ParallelNoAlloc, SequentialPerSlotRetentionChurnIsAllocationFree) {
  expect_retention_churn_does_not_allocate(1, kPerSlot);
}

TEST(ParallelNoAlloc, ShardedPerSlotRetentionChurnIsAllocationFree) {
  expect_retention_churn_does_not_allocate(4, kPerSlot);
}

TEST(ParallelNoAlloc, SequentialBatchedRetentionChurnIsAllocationFree) {
  expect_retention_churn_does_not_allocate(1, kBatched);
}

TEST(ParallelNoAlloc, ShardedBatchedRetentionChurnIsAllocationFree) {
  expect_retention_churn_does_not_allocate(4, kBatched);
}

// The engine reserved for exactly its peak simultaneous attachments (the
// live population plus the arrival attached before the departure is
// detached): reserve() must also hold the detach tombstones the steps leave
// in the table between prunes. The window is measured from the first churn
// epoch on — the table reaches its peak within a few epochs, so a warmup
// would hide a short reservation — and the detector retains no raw
// samples, so nothing else grows in it.
TEST(ParallelNoAlloc, ExactEngineReserveCoversDetachTombstones) {
  for (const Sections route : {kPerSlot, kBatched}) {
    for (const std::size_t workers : {1u, 4u}) {
      const FlappingDetector detector(route, 0);
      sim::SimSystem sys;
      ValkyrieEngine engine(sys, detector, workers);
      constexpr std::size_t kProcs = 24;
      constexpr std::size_t kEpochs = 32;
      sys.reserve(kProcs + kEpochs + 8);
      engine.reserve(kProcs + 1);
      std::vector<sim::ProcessId> fifo;
      fifo.reserve(kProcs + kEpochs);
      for (std::size_t i = 0; i < kProcs; ++i) {
        const sim::ProcessId pid =
            sys.spawn(std::make_unique<SigWorkload>(benign_signature()));
        engine.attach(pid, ValkyrieConfig{},
                      std::make_unique<SchedulerWeightActuator>());
        fifo.push_back(pid);
      }
      std::vector<std::unique_ptr<sim::Workload>> workload_stash;
      std::vector<std::unique_ptr<Actuator>> actuator_stash;
      for (std::size_t i = 0; i < kEpochs; ++i) {
        workload_stash.push_back(
            std::make_unique<SigWorkload>(benign_signature()));
        actuator_stash.push_back(std::make_unique<SchedulerWeightActuator>());
      }
      // Plain steps settle the plane and the per-slot scratch first.
      engine.step();
      engine.step();

      const std::size_t before = g_allocations.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < kEpochs; ++i) {
        sys.kill(fifo[i]);
        const sim::ProcessId fresh = sys.spawn(std::move(workload_stash[i]));
        engine.attach(fresh, ValkyrieConfig{}, std::move(actuator_stash[i]));
        fifo.push_back(fresh);
        engine.detach(fifo[i]);
        ASSERT_EQ(engine.step(), kProcs);
      }
      const std::size_t after = g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after, before) << "churn allocated with " << workers
                               << " workers, route "
                               << static_cast<int>(route);
    }
  }
}

// Attack models in steady state: palette programs beside a ransomware and a
// miner, under a detector that never votes malicious, so both attacks run
// at full share every epoch. Their epochs must not allocate either — the
// ransomware reads its plaintext slice as draws, with no buffer. The
// rowhammer stays out: its flip log grows by design.
class NeverMaliciousDetector final : public ml::Detector {
 public:
  explicit NeverMaliciousDetector(PlaneSections sections)
      : sections_(sections) {}

  [[nodiscard]] std::string_view name() const override { return "benign"; }
  [[nodiscard]] ml::Inference infer(
      std::span<const hpc::HpcSample> /*window*/) const override {
    return ml::Inference::kBenign;
  }
  [[nodiscard]] ml::Inference infer(
      const ml::WindowSummary& /*summary*/) const override {
    return ml::Inference::kBenign;
  }
  [[nodiscard]] PlaneSections plane_sections() const override {
    return sections_;
  }

 private:
  PlaneSections sections_;
};

void expect_attack_epochs_do_not_allocate(std::size_t worker_threads,
                                          Sections route) {
  const NeverMaliciousDetector detector(route);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, worker_threads);

  constexpr std::size_t kWarmup = 8;
  constexpr std::size_t kMeasured = 32;
  const std::vector<workloads::BenchmarkSpec> palette =
      workloads::all_single_threaded();
  std::vector<std::unique_ptr<sim::Workload>> population;
  for (std::size_t i = 0; i < 16; ++i) {
    workloads::BenchmarkSpec spec = palette[i % palette.size()];
    spec.epochs_of_work = 1e9;
    population.push_back(std::make_unique<workloads::BenchmarkWorkload>(spec));
  }
  population.push_back(std::make_unique<attacks::RansomwareAttack>());
  population.push_back(std::make_unique<attacks::CryptominerAttack>());
  const std::size_t procs = population.size();
  for (std::unique_ptr<sim::Workload>& workload : population) {
    const sim::ProcessId pid = sys.spawn(std::move(workload));
    engine.attach(pid, ValkyrieConfig{},
                  std::make_unique<SchedulerWeightActuator>());
  }

  sys.reserve_history(kWarmup + kMeasured + 1);
  for (std::size_t i = 0; i < kWarmup; ++i) engine.step();

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::size_t live = 0;
  for (std::size_t i = 0; i < kMeasured; ++i) live = engine.step();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after, before) << "attack epochs allocated with "
                           << worker_threads << " workers";
  EXPECT_EQ(live, procs);
  for (const sim::ProcessId pid : sys.live_processes()) {
    EXPECT_EQ(engine.last_action(pid), ValkyrieMonitor::Action::kNone);
  }
}

TEST(ParallelNoAlloc, AttackModelEpochsAreAllocationFree) {
  for (const Sections route : {kPerSlot, kBatched}) {
    for (const std::size_t workers : {1u, 4u}) {
      expect_attack_epochs_do_not_allocate(workers, route);
    }
  }
}

// The guards above see every allocation form, the nothrow ones included:
// std::stable_sort takes its buffer from std::get_temporary_buffer, which
// calls operator new(size, std::nothrow). Left to the runtime, that form
// is a sanitizer's own allocator, which the count never sees and whose
// blocks the replaced delete would hand to free().
TEST(ParallelNoAlloc, NothrowAllocationsAreCountedAndFreedInKind) {
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  int* boxed = new (std::nothrow) int(7);
  ASSERT_NE(boxed, nullptr);
  EXPECT_EQ(*boxed, 7);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before + 1);
  delete boxed;

  std::vector<int> keys(4096);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int>(i * 2654435761u % 1024u);
  }
  before = g_allocations.load(std::memory_order_relaxed);
  std::stable_sort(keys.begin(), keys.end());
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

}  // namespace
}  // namespace valkyrie::core
