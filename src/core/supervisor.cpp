#include "core/supervisor.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/serial.hpp"

namespace valkyrie::core {

SupervisedEngine::SupervisedEngine(WorldFactory factory, Config config)
    : factory_(std::move(factory)),
      config_(std::move(config)),
      snapshotter_([this](std::vector<std::uint8_t> bytes,
                          std::uint64_t steps) {
        // `steps` is the tag take_checkpoint() attached to this request —
        // it travelled WITH the image, so a request that died in the
        // encoder (parked failure, image dropped) cannot shift these bytes
        // onto another checkpoint's step count.
        std::lock_guard<std::mutex> lock(latest_mutex_);
        if (config_.durability_sink != nullptr) {
          // May throw (e.g. file_sink on a full disk). The Snapshotter
          // parks the exception and poll_checkpoint_errors() surfaces it;
          // the generations below keep their previous contents, because a
          // checkpoint that did not persist never happened.
          config_.durability_sink(bytes);
        }
        prev_ = std::move(latest_);
        prev_steps_ = latest_steps_;
        latest_ = std::move(bytes);
        latest_steps_ = steps;
        confirmed_.fetch_add(1, std::memory_order_relaxed);
      }) {
  if (factory_ == nullptr) {
    throw std::invalid_argument("SupervisedEngine: null world factory");
  }
  if (config_.checkpoint_interval == 0) {
    throw std::invalid_argument(
        "SupervisedEngine: checkpoint_interval must be positive");
  }
  world_ = factory_(nullptr);
  if (world_.system == nullptr || world_.engine == nullptr) {
    throw std::invalid_argument(
        "SupervisedEngine: factory returned an incomplete world");
  }
  // Baseline checkpoint: recovery must always have something to restore,
  // even if the first crash lands before the first interval boundary.
  take_checkpoint();
}

std::size_t SupervisedEngine::step_world() {
  return world_.driver != nullptr ? world_.driver->step()
                                  : world_.engine->step();
}

void SupervisedEngine::poll_checkpoint_errors() {
  if (snapshotter_.take_error() != nullptr) {
    ++health_.checkpoint_failures;
  }
}

std::size_t SupervisedEngine::step() {
  // Surface any checkpoint that failed to encode or persist since the
  // last step. Counting it here (instead of throwing from a later flush)
  // keeps the run alive on degraded durability — the in-memory
  // generations still cover recovery.
  poll_checkpoint_errors();

  std::size_t recoveries_this_step = 0;
  for (;;) {
    try {
      last_live_ = step_world();
    } catch (...) {
      // The epoch aborted (the engine's containment already rolled back the
      // epoch-boundary commits, but the world has diverged from the clean
      // timeline). Discard it and retry the step from the last checkpoint.
      // A deterministic fault will fail identically on every retry, so the
      // cap turns "retry forever" into a clean rethrow to the caller.
      if (recoveries_this_step >= config_.max_recoveries_per_step) {
        throw;
      }
      ++recoveries_this_step;
      recover();
      continue;
    }
    ++completed_steps_;
    ++health_.steps;
    break;
  }

  const bool crash =
      std::find(config_.crash_epochs.begin(), config_.crash_epochs.end(),
                completed_steps_) != config_.crash_epochs.end();
  if (crash) {
    // The crash fires after the epoch completed but before any checkpoint
    // of it could be taken — the worst-ordered loss. Recovery replays the
    // epoch we just watched complete, and determinism makes the replayed
    // world bit-identical to the one we lost, so the cadence check below
    // treats it exactly as the crash-free run treats the original.
    ++health_.injected_crashes;
    recover();
  }
  if (completed_steps_ - request_steps_ >= config_.checkpoint_interval) {
    take_checkpoint();
    if (std::find(config_.corrupt_checkpoint_epochs.begin(),
                  config_.corrupt_checkpoint_epochs.end(),
                  completed_steps_) != config_.corrupt_checkpoint_epochs.end()) {
      // Injected torn write: wait for the checkpoint to land, then damage
      // it. The flipped byte fails the section CRC at the next recovery's
      // parse, forcing the previous-generation fallback. A parked
      // durability failure surfacing here is priced, not fatal — the same
      // contract recover()'s flush honours.
      try {
        snapshotter_.flush();
      } catch (...) {
        ++health_.checkpoint_failures;
      }
      std::lock_guard<std::mutex> lock(latest_mutex_);
      if (!latest_.empty()) {
        latest_.back() ^= 0x5a;
      }
    }
  }
  return last_live_;
}

void SupervisedEngine::run(std::size_t epochs) {
  for (std::size_t i = 0; i < epochs; ++i) {
    step();
  }
}

SupervisedEngine::Health SupervisedEngine::health() const {
  Health h = health_;
  h.checkpoints = confirmed_.load(std::memory_order_relaxed);
  return h;
}

void SupervisedEngine::take_checkpoint() {
  // Clear any stale parked failure first so request() cannot rethrow a
  // PREVIOUS checkpoint's error at us — that failure is priced, not fatal.
  poll_checkpoint_errors();
  if (world_.driver != nullptr) {
    snapshotter_.request(*world_.driver, completed_steps_);
  } else {
    snapshotter_.request(*world_.engine, completed_steps_);
  }
  request_steps_ = completed_steps_;
}

void SupervisedEngine::recover() {
  // The checkpoint may still be in the encoder; recovery is the moment we
  // need it delivered. A parked sink failure must not abort the recovery —
  // the in-memory generations are still valid — so it is priced into
  // Health instead of rethrown.
  try {
    snapshotter_.flush();
  } catch (...) {
    ++health_.checkpoint_failures;
  }
  // Parse the retained generation in place, under the lock and without
  // copying its bytes, into one of the Snapshotter's kept images, which
  // goes back for the next checkpoint once the world is rebuilt.
  snapshot::SnapshotImage image = snapshotter_.lend_image();
  std::uint64_t restored_steps = 0;
  bool fallback = false;
  {
    std::lock_guard<std::mutex> lock(latest_mutex_);
    try {
      snapshot::parse(latest_, image);
      restored_steps = latest_steps_;
    } catch (const util::SerialError&) {
      // The latest checkpoint is torn or corrupted. That is exactly what
      // the previous generation is kept for: restore it and pay the longer
      // replay instead of losing the run.
      if (prev_.empty()) {
        throw;  // nothing older to fall back to — the loss is real
      }
      snapshot::parse(prev_, image);
      restored_steps = prev_steps_;
      fallback = true;
      ++health_.fallback_recoveries;
    }
  }

  // Tear the dead world down before building its replacement: the driver
  // holds references into the engine, the engine into the system.
  world_ = SupervisedWorld{};
  world_ = factory_(&image);
  snapshotter_.return_image(std::move(image));
  if (world_.system == nullptr || world_.engine == nullptr) {
    throw std::invalid_argument(
        "SupervisedEngine: factory returned an incomplete world");
  }
  ++health_.recoveries;

  // Replay to the present. Checkpoints are suppressed: the checkpoint
  // cadence (and therefore the bytes any later recovery restores from)
  // must match the crash-free run's.
  const std::uint64_t replay = completed_steps_ - restored_steps;
  for (std::uint64_t i = 0; i < replay; ++i) {
    last_live_ = step_world();
    ++health_.epochs_replayed;
  }
  health_.worst_replay = std::max(health_.worst_replay, replay);
  recovery_log_.push_back(RecoveryRecord{completed_steps_, replay, fallback});
}

std::vector<std::uint8_t> SupervisedEngine::latest_checkpoint() {
  snapshotter_.flush();
  std::lock_guard<std::mutex> lock(latest_mutex_);
  return latest_;
}

}  // namespace valkyrie::core
