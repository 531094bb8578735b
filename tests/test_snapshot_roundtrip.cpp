// The restore determinism contract (the snapshot subsystem's acceptance
// test): snapshot a churning engine run at epoch E — at a boundary where a
// kill is still pending compaction (mid-churn) — restore the bytes into a
// completely fresh system + engine, run both worlds to E+500, and demand
// BIT-IDENTICAL retained histories, window state, actions and threat
// indices, for any worker count. The final encoded snapshots of the two
// worlds must be byte-equal, which covers every field the engine stack
// carries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/svm.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
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
      // Both worlds retain the SVM's declared window — no raw samples.
      const auto& golden_history = golden->sys.sample_history(pid);
      const auto& world_history = world->sys.sample_history(pid);
      ASSERT_EQ(golden_history.size(), world_history.size())
          << label << " pid " << pid;
      ASSERT_LE(world_history.size(), detector.raw_window());
      for (std::size_t e = 0; e < golden_history.size(); ++e) {
        ASSERT_EQ(golden_history[e].counts, world_history[e].counts)
            << label << " pid " << pid << " epoch " << e;
      }
      ASSERT_EQ(golden->sys.last_sample(pid).counts,
                world->sys.last_sample(pid).counts)
          << label << " pid " << pid;
      const ml::WindowAccumulator::State ga =
          golden->sys.window_accumulator(pid).state();
      const ml::WindowAccumulator::State wa =
          world->sys.window_accumulator(pid).state();
      ASSERT_EQ(ga.count, wa.count) << label << " pid " << pid;
      ASSERT_EQ(ga.mean, wa.mean) << label << " pid " << pid;
      ASSERT_EQ(ga.m2, wa.m2) << label << " pid " << pid;
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

/// Detach/re-attach churn keyed on the epoch and on system and engine state
/// only, so a world and a fork restored from it make the same calls. Every
/// epoch detaches the largest attached live pid and re-attaches the
/// smallest unattached one, which may be the pid just detached; every third
/// epoch the smallest attached pid is detached and re-attached at once,
/// while its tombstone is still in the table. Up to two tombstones an epoch
/// against a ~20-entry table cross the engine's prune threshold every few
/// steps.
void tombstone_churn(sim::SimSystem& sys, ValkyrieEngine& engine) {
  const std::uint64_t epoch = sys.current_epoch();
  if (epoch % 9 == 4) scripted_spawn(sys, engine);
  if (epoch % 13 == 6) kill_oldest_live_benign(sys);
  const auto find = [&](bool attached, bool largest) {
    std::optional<sim::ProcessId> found;
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      if (!sys.is_live(pid) || engine.is_attached(pid) != attached) continue;
      found = pid;
      if (!largest) break;
    }
    return found;
  };
  if (epoch % 3 == 0) {
    if (const std::optional<sim::ProcessId> pid = find(true, false)) {
      engine.detach(*pid);
      engine.attach(*pid, ValkyrieConfig{}, scripted_actuator(epoch));
    }
  }
  if (const std::optional<sim::ProcessId> pid = find(true, true)) {
    engine.detach(*pid);
  }
  if (const std::optional<sim::ProcessId> pid = find(false, false)) {
    engine.attach(*pid, ValkyrieConfig{}, scripted_actuator(*pid + epoch));
  }
}

TEST(SnapshotRoundtrip, DetachTombstonesNeverReachOutput) {
  // The engine prunes detach tombstones lazily, so a long-running world
  // carries some while a world restored from its snapshot starts with none,
  // and the two prune at different steps. Neither may show in any output:
  // from every fork point both worlds must capture the same bytes at every
  // epoch, on one worker and on two.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const snapshot::RestoreContext ctx{};
  constexpr std::uint64_t kEpochs = 60;
  constexpr std::uint64_t kForkEvery = 10;
  constexpr std::uint64_t kForkEpochs = 20;
  for (const std::size_t threads : {1u, 2u}) {
    World world;
    world.engine = std::make_unique<ValkyrieEngine>(world.sys, detector,
                                                    threads);
    for (std::size_t i = 0; i < 16; ++i) {
      scripted_spawn(world.sys, *world.engine);
    }
    struct Fork {
      std::unique_ptr<World> world;
      std::uint64_t forked_at = 0;
    };
    std::vector<Fork> forks;
    for (std::uint64_t e = 1; e <= kEpochs; ++e) {
      tombstone_churn(world.sys, *world.engine);
      world.engine->step();
      const std::vector<std::uint8_t> bytes =
          snapshot::encode(snapshot::capture(*world.engine));
      for (const Fork& fork : forks) {
        tombstone_churn(fork.world->sys, *fork.world->engine);
        fork.world->engine->step();
        expect_bytes_equal(
            bytes, snapshot::encode(snapshot::capture(*fork.world->engine)),
            std::to_string(threads) + "w fork at " +
                std::to_string(fork.forked_at) + ", epoch " +
                std::to_string(e));
      }
      std::erase_if(forks, [e](const Fork& fork) {
        return e == fork.forked_at + kForkEpochs;
      });
      if (e % kForkEvery == 0 && e + kForkEpochs <= kEpochs) {
        Fork fork{std::make_unique<World>(), e};
        fork.world->engine = std::make_unique<ValkyrieEngine>(
            fork.world->sys, detector, threads);
        snapshot::restore(snapshot::parse(bytes), *fork.world->engine, ctx);
        expect_bytes_equal(
            bytes, snapshot::encode(snapshot::capture(*fork.world->engine)),
            std::to_string(threads) + "w re-capture at " + std::to_string(e));
        forks.push_back(std::move(fork));
      }
    }
    EXPECT_TRUE(forks.empty());
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

/// A churn world larger than run_to_snapshot's in every table — more
/// slots, rows, attachments and departures, rows that retain raw samples,
/// and a driver section — to leave a used image behind.
struct DriverWorld {
  sim::SimSystem sys;
  std::unique_ptr<ValkyrieEngine> engine;
  std::unique_ptr<sim::ScenarioDriver> driver;
};

std::unique_ptr<DriverWorld> larger_driver_world(
    const ml::SvmDetector& detector, std::size_t threads) {
  auto world = std::make_unique<DriverWorld>();
  world->engine =
      std::make_unique<ValkyrieEngine>(world->sys, detector, threads);
  world->sys.set_history_window(16);  // the engine only ever widens it
  sim::ScenarioScript script;
  script.seed = 0xb16;
  script.initial_processes = 48;
  script.arrival_rate = 1.5;
  script.attack_fraction = 0.2;
  script.mean_lifetime = 30.0;
  script.kill_exit_fraction = 0.5;
  world->driver =
      std::make_unique<sim::ScenarioDriver>(*world->engine, script);
  for (int e = 0; e < 60; ++e) world->driver->step();
  return world;
}

TEST(SnapshotRoundtrip, CaptureIntoAUsedImageMatchesAFreshCapture) {
  // capture() overwrites an image whatever it held before: an image last
  // filled from a larger driver world (longer tables, retained histories,
  // a driver section) and one last filled from a smaller engine-only world
  // must both encode to exactly the bytes of a fresh capture, at every
  // worker count.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  std::optional<std::vector<std::uint8_t>> first;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string label = std::to_string(threads) + "w";
    const std::unique_ptr<World> world = run_to_snapshot(detector, threads);
    const snapshot::SnapshotImage fresh_image =
        snapshot::capture(*world->engine);
    const std::vector<std::uint8_t> fresh = snapshot::encode(fresh_image);

    const std::unique_ptr<DriverWorld> larger =
        larger_driver_world(detector, threads);
    snapshot::SnapshotImage from_larger;
    snapshot::capture(*larger->driver, from_larger);
    ASSERT_TRUE(from_larger.has_driver);
    ASSERT_GT(from_larger.system.slots.size(),
              fresh_image.system.slots.size());
    ASSERT_GT(from_larger.system.procs.size(),
              fresh_image.system.procs.size());
    snapshot::capture(*world->engine, from_larger);
    EXPECT_FALSE(from_larger.has_driver);
    expect_bytes_equal(fresh, snapshot::encode(from_larger),
                       label + " over a larger driver world");

    World smaller;
    smaller.engine =
        std::make_unique<ValkyrieEngine>(smaller.sys, detector, threads);
    for (std::size_t i = 0; i < 3; ++i) {
      scripted_spawn(smaller.sys, *smaller.engine);
    }
    smaller.engine->run(5);
    snapshot::SnapshotImage from_smaller;
    snapshot::capture(*smaller.engine, from_smaller);
    snapshot::capture(*world->engine, from_smaller);
    expect_bytes_equal(fresh, snapshot::encode(from_smaller),
                       label + " over a smaller engine world");

    if (!first) first = fresh;
    expect_bytes_equal(*first, fresh, label + " against 1w");
  }
}

TEST(SnapshotRoundtrip, RecycledRowsCaptureInPidOrder) {
  // Under retention a reclaimed cold row goes to a later spawn, so row
  // order stops being pid order and capture must sort. The bytes must
  // still be one ascending-pid image at every worker count, and must
  // restore into a world that re-captures them exactly.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  std::optional<std::vector<std::uint8_t>> first;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string label = std::to_string(threads) + "w";
    World world;
    world.engine =
        std::make_unique<ValkyrieEngine>(world.sys, detector, threads);
    world.sys.enable_retirement_retention(3);
    for (std::size_t i = 0; i < 16; ++i) {
      scripted_spawn(world.sys, *world.engine);
    }
    // drive_epochs probes every pid ever spawned, which retention makes
    // unknown; this churn reads the live list only.
    for (std::uint64_t e = 0; e < kSnapshotEpoch; ++e) {
      if (e % 7 == 3) {
        for (const sim::ProcessId pid : world.sys.live_processes()) {
          if (!world.sys.workload(pid).is_attack()) {
            world.sys.kill(pid);
            break;
          }
        }
      }
      if (e % 5 == 1) scripted_spawn(world.sys, *world.engine);
      world.engine->step();
    }
    ASSERT_LT(world.sys.cold_rows_allocated(), world.sys.total_spawned())
        << label << ": no row was recycled";

    snapshot::SnapshotImage image;
    snapshot::capture(*world.engine, image);
    for (std::size_t i = 1; i < image.system.procs.size(); ++i) {
      ASSERT_LT(image.system.procs[i - 1].pid, image.system.procs[i].pid)
          << label << " row " << i;
    }
    const std::vector<std::uint8_t> bytes = snapshot::encode(image);
    if (!first) first = bytes;
    expect_bytes_equal(*first, bytes, label + " against 1w");

    World restored;
    restored.engine =
        std::make_unique<ValkyrieEngine>(restored.sys, detector, threads);
    snapshot::restore(snapshot::parse(bytes), *restored.engine,
                      snapshot::RestoreContext{});
    expect_bytes_equal(bytes,
                       snapshot::encode(snapshot::capture(*restored.engine)),
                       label + " re-capture of the restored world");
  }
}

/// A varied double for field `k`: ordinary values plus the bit patterns a
/// codec most easily mangles (-0.0, a NaN payload, a denormal, infinity).
double pinned_f64(std::uint64_t k) {
  switch (k % 7) {
    case 0:
      return -0.0;
    case 1:
      return std::bit_cast<double>(0x7ff80000'0000beefULL);
    case 2:
      return std::bit_cast<double>(0x00000000'00000123ULL);
    case 3:
      return -std::numeric_limits<double>::infinity();
    default:
      return static_cast<double>(k) * 1.0625 - 17.0;
  }
}

hpc::HpcSample pinned_sample(std::uint64_t k) {
  hpc::HpcSample sample;
  for (std::size_t e = 0; e < hpc::kNumEvents; ++e) {
    sample.counts[e] = pinned_f64(k + e);
  }
  return sample;
}

ml::WindowAccumulator::State pinned_accum(std::uint64_t k) {
  ml::WindowAccumulator::State s;
  s.count = k + 3;
  for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
    s.mean[f] = pinned_f64(k + f);
    s.m2[f] = pinned_f64(k + 2 * f + 1);
    s.newest[f] = pinned_f64(k + 3 * f + 2);
    s.fcount[f] = k + f;
  }
  s.newest_mask = static_cast<std::uint32_t>(0xa5a5u ^ k);
  return s;
}

/// A hand-built image touching every section and every variable-length
/// table — no simulation, so its bytes depend on the codec alone.
snapshot::SnapshotImage pinned_image() {
  snapshot::SnapshotImage image;
  snapshot::SystemImage& sys = image.system;
  sys.epoch_ms = 100.0;
  sys.hpc_noise = 0.75;
  sys.scheduler.targeted_latency_ms = 24.0;
  sys.scheduler.gamma = 1.25;
  sys.scheduler.weight_levels = 40;
  sys.scheduler.default_level = -3;
  sys.scheduler.background_weight_units = 2.5;
  sys.scheduler.min_share_fraction = 0.015625;
  sys.rng = {1, 2, 3, 0xfedcba9876543210ULL};
  sys.epoch = 4242;
  sys.retire_pending = true;
  sys.counter_rng = true;
  sys.history_window = 64;
  sys.total_spawned = 9;
  sys.retention_enabled = true;
  sys.retention_epochs = 32;
  sys.retire_queue = {{3, 4200}, {5, 4230}};
  for (std::uint32_t s = 0; s < 2; ++s) {
    snapshot::SlotImage slot;
    slot.pid = 2 * s + 1;
    slot.rng = {s, s + 10, s + 20, ~std::uint64_t{s}};
    slot.cgroup = {pinned_f64(s), 0.5, 0.25, 1.0};
    slot.effective = {0.125, pinned_f64(s + 1), 1.0, 0.75};
    slot.last_sample = pinned_sample(s + 5);
    slot.accum = pinned_accum(s + 7);
    slot.last_progress = pinned_f64(s + 4);
    slot.epochs_run = 100 + s;
    slot.exit = static_cast<std::uint8_t>(s);
    slot.invalid_streak = 2 * s;
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      slot.feature_streak[f] = static_cast<std::uint32_t>(f * s);
    }
    sys.slots.push_back(slot);
  }
  for (std::uint32_t r = 0; r < 3; ++r) {
    snapshot::ProcImage row;
    row.pid = r * 3;
    row.slot = r == 2 ? 0xffffffffu : r;
    if (r != 1) {
      row.workload.type = "benchmark";
      row.workload.payload = {static_cast<std::uint8_t>(r), 0x00, 0xff, 0x7e};
    }
    for (std::uint32_t h = 0; h < r * r; ++h) {
      row.history.push_back(pinned_sample(11 * r + h));
    }
    row.retired_cgroup = {0.5, pinned_f64(r + 2), 0.5, 0.5};
    row.retired_effective = {pinned_f64(r + 3), 0.25, 0.25, 0.25};
    row.retired_last_sample = pinned_sample(r + 40);
    row.retired_accum = pinned_accum(r + 50);
    row.retired_last_progress = 3.5 * r;
    row.retired_epochs_run = 7 * r;
    row.retired_exit = static_cast<std::uint8_t>(r + 1);
    sys.procs.push_back(row);
    sys.sched_entries.push_back({row.pid, r == 2 ? -1.5 : 1.0 + r});
  }

  snapshot::EngineImage& eng = image.engine;
  eng.detector_hash = 0x0123456789abcdefULL;
  eng.step_tag = 4242;
  for (std::uint32_t a = 0; a < 2; ++a) {
    snapshot::AttachmentImage att;
    att.pid = 2 * a + 1;
    att.monitor.required_measurements = 5 + a;
    att.monitor.episode_scoped = a == 0;
    att.monitor.reset_metrics_on_normal = a == 1;
    att.monitor.actuator.type = a == 0 ? "scheduler_weight" : "cgroup_cpu";
    att.monitor.actuator.payload = {0x10, static_cast<std::uint8_t>(a)};
    att.monitor.threat = pinned_f64(a + 4);
    att.monitor.penalty = 0.5 * a;
    att.monitor.compensation = pinned_f64(a);
    att.monitor.threat_state = static_cast<std::uint8_t>(a + 1);
    att.monitor.measurements = 12 + a;
    att.monitor.state = static_cast<std::uint8_t>(a);
    att.has_terminal = a == 1;
    att.terminal_hash = a == 1 ? 0xdeadbeefULL : 0;
    att.stream_malicious = 3 + a;
    att.stream_counted = 9 + a;
    att.stream_skipped = 40 + a;
    att.terminal_malicious = a;
    att.terminal_counted = 2 * a;
    att.terminal_skipped = 17 * a;
    att.last_action = static_cast<std::uint8_t>(a + 1);
    att.last_action_step = a == 0 ? 0 : 4241;
    eng.attachments.push_back(att);
  }
  eng.retries.push_back({3, 1, -0.25, 2, 4250});

  image.has_driver = true;
  snapshot::DriverImage& drv = image.driver;
  drv.script_fingerprint = 0x5ca1ab1eULL;
  drv.rng = {7, 8, 9, 10};
  drv.spawned = 9;
  drv.attack_spawned = 2;
  drv.driver_kills = 1;
  drv.completed = 3;
  drv.policy_kills = 1;
  drv.rejected = 4;
  drv.peak_live = 6;
  drv.epochs = 4242;
  drv.live_epoch_sum = 12345.5;
  drv.departures = {{4300, 1}, {4400, 3}};
  drv.campaign_progress = {7, 0, 11};
  drv.prev_live = {1, 3};
  drv.live = 2;
  return image;
}

// The v6 wire format, pinned: the encoded bytes of a fixed hand-built
// image must hash to the value the format was recorded at, and decode back
// to the identical image. A codec rewrite that moved one byte fails here.
TEST(SnapshotFormat, V6BytesArePinned) {
  const snapshot::SnapshotImage image = pinned_image();
  const std::vector<std::uint8_t> bytes = snapshot::encode(image);
  EXPECT_EQ(bytes.size(), 4490u);
  EXPECT_EQ(util::fnv1a(bytes), 0xa1eaf22c6e622b40ULL);
  EXPECT_TRUE(snapshot::diff(snapshot::parse(bytes), image).empty());
  // encode() reserved exactly the bytes it wrote, once.
  EXPECT_EQ(bytes.capacity(), bytes.size());
}

// parse() and diff() walk the same field lists, so no encoded byte can
// change without diff() reporting it: flip each payload byte's low bit,
// re-seal its section's CRC, and whenever parse still accepts the bytes,
// the decoded image must differ from the original somewhere.
TEST(SnapshotFormat, DiffSeesEveryEncodedByte) {
  const snapshot::SnapshotImage image = pinned_image();
  const std::vector<std::uint8_t> bytes = snapshot::encode(image);
  std::size_t parsed = 0;
  // After the 12-byte header, each section is a fourcc, a u64 payload
  // length, the payload and its u32 CRC.
  for (std::size_t at = 12; at < bytes.size();) {
    const std::size_t payload_at = at + 4 + 8;
    const std::size_t length =
        util::ByteReader({bytes.data() + at + 4, 8}).u64();
    for (std::size_t i = payload_at; i < payload_at + length; ++i) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[i] ^= 1;
      std::vector<std::uint8_t> crc;
      util::ByteWriter(crc).u32(
          util::crc32({mutated.data() + payload_at, length}));
      std::copy(crc.begin(), crc.end(),
                mutated.begin() + static_cast<long>(payload_at + length));
      snapshot::SnapshotImage decoded;
      try {
        decoded = snapshot::parse(mutated);
      } catch (const util::SerialError&) {
        continue;  // refused, typed
      }
      ++parsed;
      EXPECT_FALSE(snapshot::diff(decoded, image).empty())
          << "a flip at byte " << i << " escapes diff()";
    }
    at = payload_at + length + 4;
  }
  EXPECT_GT(parsed, 0u);
}

// The paths diff() reports, which snapshot_diff prints.
TEST(SnapshotFormat, DiffNamesEachFieldByItsPath) {
  const snapshot::SnapshotImage image = pinned_image();
  const auto diffs_after = [&image](auto edit) {
    snapshot::SnapshotImage edited = image;
    edit(edited);
    std::vector<std::string> found;
    for (const snapshot::FieldDiff& d : snapshot::diff(image, edited)) {
      found.push_back(d.path + ": " + d.lhs + " -> " + d.rhs);
    }
    return found;
  };
  using Paths = std::vector<std::string>;
  EXPECT_EQ(diffs_after([](snapshot::SnapshotImage& i) {
              ++i.system.slots[1].accum.fcount[3];
            }),
            Paths{"system.slots[1].accum.fcount[3]: 11 -> 12"});
  EXPECT_EQ(diffs_after([](snapshot::SnapshotImage& i) {
              i.driver.departures[1].second = 5;
            }),
            Paths{"driver.departures[1].pid: 3 -> 5"});
  EXPECT_EQ(diffs_after([](snapshot::SnapshotImage& i) {
              i.system.procs[2].history[3].counts[5] = 2.5;
              i.system.procs[1].history.emplace_back();
            }),
            (Paths{"system.procs[1].history.size: 1 -> 2",
                   "system.procs[2].history[3][5]: "
                   "1.4377310293980274e-321 -> 2.5"}));
  EXPECT_EQ(diffs_after([](snapshot::SnapshotImage& i) {
              i.system.scheduler.default_level = 3;
              i.engine.attachments[0].monitor.actuator.payload[0] = 0;
            }),
            (Paths{"system.scheduler.default_level: 18446744073709551613 -> 3",
                   "engine.attachments[0].monitor.actuator.payload: 2 bytes "
                   "-> 2 bytes (contents differ)"}));
  EXPECT_EQ(diffs_after([](snapshot::SnapshotImage& i) {
              i.has_driver = false;
            }),
            Paths{"has_driver: 1 -> 0"});
}

// A v5 header is refused typed: its attachments lack the skip counters, so
// decoding it as v6 would misread every field after them.
TEST(SnapshotFormat, V5HeaderIsRefused) {
  std::vector<std::uint8_t> bytes = snapshot::encode(pinned_image());
  bytes[8] = 5;  // the format version's LSB, right after the 8-byte magic
  try {
    (void)snapshot::parse(bytes);
    FAIL() << "a v5 header was accepted";
  } catch (const util::SerialError& err) {
    EXPECT_EQ(err.code(), util::SerialError::Code::kBadVersion);
  }
}

}  // namespace
}  // namespace valkyrie::core
