// SupervisedEngine: the self-healing loop that closes the fault plane.
//
// The engine's own hardening (quarantine, containment, retry ladders)
// degrades gracefully around *partial* faults; the supervisor handles the
// failures that take the whole world down — an injected crash, a shard
// exception that aborted the epoch, an unrecoverable command backlog. It
// owns the world (system + engine + optional scenario driver) through a
// caller-supplied factory, checkpoints it periodically through PR 6's
// off-thread Snapshotter into an in-memory last-known-good slot, and on
// any step failure or injected crash destroys the world, rebuilds it from
// the last checkpoint and replays forward to the present epoch.
//
// This revision prices that loop. Recovery is not free — its cost is the
// replay distance, and the replay distance is bought down by checkpoint
// cadence. The supervisor therefore keeps TWO checkpoint generations
// (latest + previous: a checkpoint that parses as garbage must not be a
// total loss), counts a checkpoint only once the sink confirmed it,
// and records every recovery's replay cost — all without perturbing the
// world's own deterministic timeline.
//
// Because every run in this codebase is bit-deterministic — including
// chaos runs, whose fault schedules are pure hashes — replay reproduces
// the lost epochs exactly, so a supervised run's final state is
// byte-identical to the same run without any crash. That is the property
// the supervisor tests pin down.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/valkyrie.hpp"
#include "sim/scenario.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/snapshotter.hpp"

namespace valkyrie::core {

/// One self-contained world under supervision. Declaration order is the
/// dependency order (driver references engine references system), so the
/// reverse-order member destruction tears it down safely.
struct SupervisedWorld {
  std::unique_ptr<sim::SimSystem> system;
  std::unique_ptr<ValkyrieEngine> engine;
  std::unique_ptr<sim::ScenarioDriver> driver;  // optional
};

class SupervisedEngine {
 public:
  /// Builds a world. Called with nullptr for the initial (fresh) world and
  /// with a parsed checkpoint image on every recovery; the factory must
  /// then restore system + engine from the image (snapshot::restore) and,
  /// when it runs a driver, construct it with the restore constructor over
  /// image->driver. Run configuration that is code — detector, fault
  /// plane, worker count, tolerance knobs — is the factory's to
  /// re-establish identically each time; that is what makes replay
  /// deterministic.
  using WorldFactory =
      std::function<SupervisedWorld(const snapshot::SnapshotImage*)>;

  struct Config {
    /// Checkpoint every N completed steps (a baseline checkpoint is always
    /// taken at construction). Must be positive.
    std::uint64_t checkpoint_interval = 16;
    /// Injected crash schedule, in completed-step counts: after the world
    /// completes its crash_epochs[i]-th supervised step, the in-memory
    /// world is destroyed (as a process crash would) and recovered from
    /// the last checkpoint. Each entry fires at most once.
    std::vector<std::uint64_t> crash_epochs;
    /// Step-exception recoveries tolerated for ONE step before the
    /// exception is rethrown to the caller: a deterministic fault replays
    /// identically, and retrying it forever would hang the run.
    std::size_t max_recoveries_per_step = 3;
    /// Optional durability hook, invoked on the Snapshotter worker with a
    /// copy of each confirmed checkpoint's bytes (e.g. snapshot::file_sink
    /// for disk persistence). If it throws, the checkpoint does NOT
    /// confirm: the in-memory generations keep their previous contents and
    /// the failure surfaces as Health::checkpoint_failures at the next
    /// step — a checkpoint that did not persist must not be trusted.
    snapshot::Snapshotter::Sink durability_sink;
    /// Deterministic corrupted-checkpoint injection: after the checkpoint
    /// requested at each of these completed-step counts is confirmed, a
    /// byte of the latest generation is flipped in place. The next
    /// recovery's parse fails its CRC and falls back to the previous
    /// generation — the torn-write path, exercised on purpose.
    std::vector<std::uint64_t> corrupt_checkpoint_epochs;
  };

  struct Health {
    std::uint64_t steps = 0;             // supervised steps completed
    std::uint64_t checkpoints = 0;       // sink-CONFIRMED checkpoints
    std::uint64_t checkpoint_failures = 0;  // encode/sink failures surfaced
    std::uint64_t recoveries = 0;        // worlds rebuilt from checkpoint
    std::uint64_t fallback_recoveries = 0;  // ... restored from the
                                            // previous generation because
                                            // the latest failed to parse
    std::uint64_t injected_crashes = 0;  // ... of which from crash_epochs
    std::uint64_t epochs_replayed = 0;   // steps re-run during recoveries
    std::uint64_t worst_replay = 0;      // max single-recovery replay cost
  };

  /// One priced recovery: where the world died, how many epochs the
  /// rebuild had to replay, and whether it had to reach past a corrupted
  /// latest checkpoint to the previous generation.
  struct RecoveryRecord {
    std::uint64_t at_step = 0;
    std::uint64_t replay_epochs = 0;
    bool fallback = false;
  };

  /// Builds the initial world and takes the baseline checkpoint. Throws
  /// what the factory or capture throws.
  SupervisedEngine(WorldFactory factory, Config config);

  SupervisedEngine(const SupervisedEngine&) = delete;
  SupervisedEngine& operator=(const SupervisedEngine&) = delete;

  /// One supervised step: run the world one epoch, recovering from step
  /// exceptions (up to max_recoveries_per_step), firing any injected crash
  /// scheduled for the completed step, and checkpointing on the interval.
  /// Returns what the world's own step returned (live attached processes).
  std::size_t step();

  /// Runs `epochs` supervised steps.
  void run(std::size_t epochs);

  /// By value: `checkpoints` is confirmed asynchronously on the
  /// Snapshotter worker, so a snapshot of the counters is the only
  /// coherent read.
  [[nodiscard]] Health health() const;
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Every recovery so far, in order — the raw data behind the MTTR
  /// model: mean/worst replay cost as a function of checkpoint cadence.
  [[nodiscard]] const std::vector<RecoveryRecord>& recovery_log()
      const noexcept {
    return recovery_log_;
  }

  /// The live world (replaced wholesale by recoveries — do not cache the
  /// pointers across step() calls).
  [[nodiscard]] sim::SimSystem& system() noexcept { return *world_.system; }
  [[nodiscard]] ValkyrieEngine& engine() noexcept { return *world_.engine; }
  [[nodiscard]] sim::ScenarioDriver* driver() noexcept {
    return world_.driver.get();
  }

  /// A copy of the most recent confirmed checkpoint's encoded bytes
  /// (flushes the encoder first, so the copy reflects every checkpoint
  /// requested).
  [[nodiscard]] std::vector<std::uint8_t> latest_checkpoint();

 private:
  std::size_t step_world();
  void take_checkpoint();
  /// Destroys the world, rebuilds it from the latest parseable checkpoint
  /// generation and replays forward to `completed_steps_` (checkpoints
  /// suppressed during replay — the run's checkpoint cadence must not
  /// depend on whether a crash happened).
  void recover();
  /// Drains any parked Snapshotter failure into checkpoint_failures.
  void poll_checkpoint_errors();

  WorldFactory factory_;
  Config config_;
  SupervisedWorld world_;
  // latest_mutex_ and everything it guards must outlive snapshotter_: its
  // worker thread writes the generations through the sink until the
  // Snapshotter destructor joins it, so they are declared first
  // (destroyed last).
  std::mutex latest_mutex_;
  std::vector<std::uint8_t> latest_;  // newest confirmed checkpoint bytes
  std::vector<std::uint8_t> prev_;    // the generation before it
  std::uint64_t latest_steps_ = 0;    // completed_steps_ latest_ captured
  std::uint64_t prev_steps_ = 0;      // ... and prev_
  std::atomic<std::uint64_t> confirmed_{0};  // sink-confirmed checkpoints
  snapshot::Snapshotter snapshotter_;  // encodes into latest_ off-thread
  std::uint64_t completed_steps_ = 0;
  std::uint64_t request_steps_ = 0;  // completed_steps_ at last request
  std::size_t last_live_ = 0;
  Health health_;
  std::vector<RecoveryRecord> recovery_log_;
};

}  // namespace valkyrie::core
