// The restore determinism contract (the snapshot subsystem's acceptance
// test): snapshot a churning engine run at epoch E — at a boundary where a
// kill is still pending compaction (mid-churn) — restore the bytes into a
// completely fresh system + engine, run both worlds to E+500, and demand
// BIT-IDENTICAL histories, actions and threat indices, for any worker
// count. The final encoded snapshots of the two worlds must be
// byte-equal, which covers every field the engine stack carries.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/svm.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
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

hpc::HpcSignature attack_signature() {
  hpc::HpcSignature sig;
  sig.at(hpc::Event::kInstructions) = 4e7;
  sig.at(hpc::Event::kCycles) = 3.5e8;
  sig.at(hpc::Event::kLlcMisses) = 4e7;
  sig.at(hpc::Event::kMemBandwidth) = 2e9;
  return sig;
}

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

std::unique_ptr<Actuator> scripted_actuator(std::size_t salt) {
  if (salt % 2 == 0) return std::make_unique<SchedulerWeightActuator>();
  return std::make_unique<CgroupCpuActuator>();
}

/// Spawns one scripted process using only SNAPSHOT-SUPPORTED workloads
/// (the registered benchmark palette + cryptominer attack). The ordinal is
/// always sys.total_spawned(), so the script is a pure function of system
/// state and replays identically after a restore.
void scripted_spawn(sim::SimSystem& sys, ValkyrieEngine& engine) {
  const std::size_t ordinal = sys.total_spawned();
  const bool attack = ordinal % 6 == 1;
  std::unique_ptr<sim::Workload> workload;
  if (attack) {
    attacks::CryptominerConfig config;
    config.seed = 0xabc0 + ordinal;
    config.family_jitter = 0.1;
    workload = std::make_unique<attacks::CryptominerAttack>(config);
  } else {
    static const std::vector<workloads::BenchmarkSpec> palette =
        workloads::all_single_threaded();
    workloads::BenchmarkSpec spec = palette[ordinal % palette.size()];
    spec.epochs_of_work = ordinal % 5 == 2
                              ? static_cast<double>(40 + ordinal % 30)
                              : 1e9;  // effectively endless
    workload = std::make_unique<workloads::BenchmarkWorkload>(std::move(spec));
  }
  const sim::ProcessId pid = sys.spawn(std::move(workload));
  if (ordinal % 7 != 3) {
    engine.attach(pid, ValkyrieConfig{}, scripted_actuator(ordinal));
  }
}

void kill_oldest_live_benign(sim::SimSystem& sys) {
  for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
    if (sys.is_live(pid) && !sys.workload(pid).is_attack()) {
      sys.kill(pid);
      return;
    }
  }
}

/// Drives `epochs` epochs of the shared churn script. Every action is
/// keyed on sys.current_epoch() and derived from system state only, so the
/// golden world and a restored world execute the identical sequence.
void drive_epochs(sim::SimSystem& sys, ValkyrieEngine& engine,
                  std::size_t epochs) {
  for (std::size_t i = 0; i < epochs; ++i) {
    const std::uint64_t epoch = sys.current_epoch();
    if (epoch % 40 == 25) {
      scripted_spawn(sys, engine);
      scripted_spawn(sys, engine);
    }
    if (epoch % 60 == 30) kill_oldest_live_benign(sys);
    if (epoch == 130) {
      // Detach the smallest attached live pid mid-continuation, then
      // re-attach the smallest unattached live pid 50 epochs later, so
      // the replay also covers attachment churn after the restore point.
      for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
        if (sys.is_live(pid) && engine.is_attached(pid)) {
          engine.detach(pid);
          break;
        }
      }
    }
    if (epoch == 180) {
      for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
        if (sys.is_live(pid) && !engine.is_attached(pid)) {
          engine.attach(pid, ValkyrieConfig{}, scripted_actuator(0));
          break;
        }
      }
    }
    engine.step();
  }
}

constexpr std::size_t kSnapshotEpoch = 100;
constexpr std::size_t kContinueEpochs = 500;

struct World {
  sim::SimSystem sys;
  std::unique_ptr<ValkyrieEngine> engine;
};

/// Builds a world and runs the script to the snapshot epoch, ending with a
/// kill that is still pending compaction — the mid-churn boundary state.
std::unique_ptr<World> run_to_snapshot(const ml::SvmDetector& detector,
                                       std::size_t threads) {
  auto world = std::make_unique<World>();
  world->engine =
      std::make_unique<ValkyrieEngine>(world->sys, detector, threads);
  for (std::size_t i = 0; i < 16; ++i) {
    scripted_spawn(world->sys, *world->engine);
  }
  drive_epochs(world->sys, *world->engine, kSnapshotEpoch);
  kill_oldest_live_benign(world->sys);  // dead-marked, not yet compacted
  return world;
}

void expect_bytes_equal(const std::vector<std::uint8_t>& expected,
                        const std::vector<std::uint8_t>& actual,
                        const std::string& label) {
  if (expected == actual) return;
  const snapshot::SnapshotImage a = snapshot::parse(expected);
  const snapshot::SnapshotImage b = snapshot::parse(actual);
  const std::vector<snapshot::FieldDiff> diffs = snapshot::diff(a, b);
  std::string detail;
  for (std::size_t i = 0; i < diffs.size() && i < 8; ++i) {
    detail += "\n  " + diffs[i].path + ": " + diffs[i].lhs + " vs " +
              diffs[i].rhs;
  }
  FAIL() << label << ": snapshots differ in " << diffs.size() << " fields"
         << detail;
}

TEST(SnapshotRoundtrip, RestoredRunIsBitIdenticalForEveryWorkerCount) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const snapshot::RestoreContext ctx{};  // default config, bundled registries

  // Golden: one uninterrupted world. Snapshot at E, then keep running the
  // SAME world to E+500 — the continuation never sees the snapshot.
  std::unique_ptr<World> golden = run_to_snapshot(detector, 1);
  const snapshot::SnapshotImage golden_mid = snapshot::capture(*golden->engine);
  ASSERT_TRUE(golden_mid.system.retire_pending)
      << "the snapshot must cover the mid-churn pending-kill state";
  const std::vector<std::uint8_t> golden_mid_bytes =
      snapshot::encode(golden_mid);
  drive_epochs(golden->sys, *golden->engine, kContinueEpochs);
  const std::vector<std::uint8_t> golden_final_bytes =
      snapshot::encode(snapshot::capture(*golden->engine));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string label = std::to_string(threads) + "w";

    // The pre-snapshot state must be worker-count-independent (the
    // existing churn contract) — so every config restores the same bytes.
    std::unique_ptr<World> pre = run_to_snapshot(detector, threads);
    expect_bytes_equal(golden_mid_bytes,
                       snapshot::encode(snapshot::capture(*pre->engine)),
                       label + " pre-snapshot state");
    pre.reset();

    // Crash-and-restore: fresh system + engine, rebuilt from bytes.
    const snapshot::SnapshotImage image = snapshot::parse(golden_mid_bytes);
    auto world = std::make_unique<World>();
    world->engine =
        std::make_unique<ValkyrieEngine>(world->sys, detector, threads);
    snapshot::restore(image, *world->engine, ctx);

    // Re-capturing the freshly restored world must reproduce the bytes.
    expect_bytes_equal(golden_mid_bytes,
                       snapshot::encode(snapshot::capture(*world->engine)),
                       label + " immediate re-capture");

    drive_epochs(world->sys, *world->engine, kContinueEpochs);
    expect_bytes_equal(golden_final_bytes,
                       snapshot::encode(snapshot::capture(*world->engine)),
                       label + " continuation to E+500");

    // Spot-check the acceptance fields directly against the golden
    // world's live objects (the snapshot equality above already implies
    // them; this pins the accessors, not just the encoder).
    for (sim::ProcessId pid = 0; pid < golden->sys.total_spawned(); ++pid) {
      ASSERT_EQ(golden->sys.exit_reason(pid), world->sys.exit_reason(pid))
          << label << " pid " << pid;
      const auto& golden_history = golden->sys.sample_history(pid);
      const auto& world_history = world->sys.sample_history(pid);
      ASSERT_EQ(golden_history.size(), world_history.size())
          << label << " pid " << pid;
      for (std::size_t e = 0; e < golden_history.size(); ++e) {
        ASSERT_EQ(golden_history[e].counts, world_history[e].counts)
            << label << " pid " << pid << " epoch " << e;
      }
      ASSERT_EQ(golden->engine->is_attached(pid),
                world->engine->is_attached(pid))
          << label << " pid " << pid;
      if (golden->engine->is_attached(pid)) {
        EXPECT_EQ(golden->engine->monitor(pid).threat(),
                  world->engine->monitor(pid).threat())
            << label << " pid " << pid;
        EXPECT_EQ(golden->engine->monitor(pid).state(),
                  world->engine->monitor(pid).state())
            << label << " pid " << pid;
        EXPECT_EQ(golden->engine->last_action(pid),
                  world->engine->last_action(pid))
            << label << " pid " << pid;
      }
    }
  }
}

// A snapshot taken at a plain boundary (no pending kills) also restores
// into a world whose immediate re-capture is byte-identical — the cheap
// smoke version of the full grid above, exercised without churn pending.
TEST(SnapshotRoundtrip, CleanBoundarySnapshotRoundTripsExactly) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 2);
  for (std::size_t i = 0; i < 8; ++i) scripted_spawn(sys, engine);
  drive_epochs(sys, engine, 50);

  const std::vector<std::uint8_t> bytes =
      snapshot::encode(snapshot::capture(engine));
  const snapshot::SnapshotImage image = snapshot::parse(bytes);
  EXPECT_FALSE(image.system.retire_pending);

  sim::SimSystem sys2;
  ValkyrieEngine engine2(sys2, detector, 8);
  snapshot::restore(image, engine2, snapshot::RestoreContext{});
  EXPECT_EQ(bytes, snapshot::encode(snapshot::capture(engine2)));
  EXPECT_EQ(sys.current_epoch(), sys2.current_epoch());
  EXPECT_EQ(sys.total_spawned(), sys2.total_spawned());
}

}  // namespace
}  // namespace valkyrie::core
