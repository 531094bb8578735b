// The Valkyrie response framework (paper Fig. 2 / Algorithm 1): wires a
// runtime detector's per-epoch inferences through the threat index into an
// actuator, and owns the normal/suspicious/terminable/terminated lifecycle
// of each monitored process.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/actuator.hpp"
#include "core/threat.hpp"
#include "ml/detector.hpp"
#include "sim/system.hpp"
#include "util/pid_map.hpp"
#include "util/thread_pool.hpp"

namespace valkyrie::snapshot {
struct MonitorImage;
struct EngineImage;
struct SystemImage;
class ActuatorRegistry;
struct RestoreContext;
}  // namespace valkyrie::snapshot

namespace valkyrie::fault {
class FaultPlane;
}  // namespace valkyrie::fault

namespace valkyrie::core {

struct ValkyrieConfig {
  /// N*: measurements the detector needs for the user-specified efficacy
  /// (from EfficacyCurve::required_measurements in the offline phase).
  std::size_t required_measurements = 15;
  ThreatConfig threat{};
  /// Algorithm 1's "Update N_t" is ambiguous about when the measurement
  /// count starts. Episode scoping (default) counts measurements within
  /// the current suspicious episode and resets on full recovery: attacks
  /// stay suspicious and reach N* quickly, while a benign program's
  /// scattered false positives resolve long before N* — so it is throttled
  /// briefly but never terminated. This is the only reading consistent
  /// with the paper's empirical claims (blender_r at ~30% FP epochs
  /// survives the whole run with a ~25% slowdown; zero benign programs
  /// terminated). Set false for the literal lifetime count, under which
  /// every process becomes terminable after its first N* epochs.
  bool episode_scoped_measurements = true;
};

/// Per-process response driver. One monitor per monitored process.
class ValkyrieMonitor {
 public:
  ValkyrieMonitor(ValkyrieConfig config, std::unique_ptr<Actuator> actuator);

  enum class Action : std::uint8_t {
    kNone,        // nothing to do (normal state, no threat change)
    kThrottled,   // resources tightened
    kRelaxed,     // resources partially restored (threat fell)
    kRestored,    // all restrictions removed (recovery or terminable+benign)
    kTerminated,  // process killed
  };

  /// One epoch's response, decided but not yet applied: the lifecycle
  /// action taken plus the actuator command the commit phase must run.
  struct PlannedAction {
    Action action = Action::kNone;
    ActuatorCommand command{};
  };

  /// Decides the response to one epoch's inference, advancing the monitor's
  /// own state (threat index, measurement budget, lifecycle state) but
  /// leaving the system untouched: the returned command carries the side
  /// effect. Safe to call from a parallel shard — only shared system state
  /// mutation is deferred to the command's serial application.
  ///
  /// `terminal_inference` is the detector's decision over the *entire*
  /// accumulated measurement window — the high-efficacy judgement the user
  /// paid N* measurements for (paper §IV-A: efficacy is a property of the
  /// measurement count). It gates restore-vs-terminate in the terminable
  /// state, while the per-epoch `inference` drives the threat index. For
  /// detectors that already aggregate their window the two coincide.
  [[nodiscard]] PlannedAction plan(
      sim::ProcessId pid, ml::Inference inference,
      std::optional<ml::Inference> terminal_inference = std::nullopt);

  /// Feeds one epoch's inference for the process and applies the response
  /// immediately: plan() followed by the command (the sequential driver).
  Action on_epoch(sim::SimSystem& sys, sim::ProcessId pid,
                  ml::Inference inference,
                  std::optional<ml::Inference> terminal_inference = std::nullopt);

  [[nodiscard]] ProcessState state() const noexcept { return state_; }
  [[nodiscard]] double threat() const noexcept { return threat_.threat(); }
  [[nodiscard]] std::size_t measurements() const noexcept {
    return measurements_;
  }
  [[nodiscard]] const ValkyrieConfig& config() const noexcept {
    return config_;
  }

  /// The monitor's actuator object (non-owning). The engine's retry ladder
  /// resolves actuators through this at apply time instead of holding raw
  /// pointers in its retry table — a restored engine's table then re-binds
  /// to the restored actuators for free.
  [[nodiscard]] Actuator* actuator() noexcept { return actuator_.get(); }

  /// Captures the monitor's full response state (threat index metrics,
  /// measurement budget, lifecycle state, the actuator object) into an
  /// engine snapshot's monitor image, overwriting every field and reusing
  /// the actuator payload's capacity. The AssessmentFns in the config are
  /// code and are fingerprinted upstream, not serialized.
  void snapshot_state(snapshot::MonitorImage& image) const;

  /// Rebuilds a monitor from its image: the scalar config fields come from
  /// the image, the code-level pieces (assessment functions) from `base`,
  /// and the actuator is reconstructed through `registry`.
  [[nodiscard]] static ValkyrieMonitor restore_from(
      const snapshot::MonitorImage& image, const ValkyrieConfig& base,
      const snapshot::ActuatorRegistry& registry);

 private:
  ValkyrieConfig config_;
  std::unique_ptr<Actuator> actuator_;
  ThreatIndex threat_;
  std::size_t measurements_ = 0;
  ProcessState state_ = ProcessState::kNormal;
};

/// Convenience driver: runs a SimSystem under a detector with one Valkyrie
/// monitor per attached process. Each step runs one simulation epoch, then
/// feeds every live attached process's accumulated measurement window
/// through the detector and its monitor (so the response applies from the
/// next epoch on, matching Eq. 3's B_i(A(R_{i-1}, dT_i)) timing).
///
/// The per-epoch inference loop is streaming: the system maintains each
/// process's window statistics incrementally, the engine assembles one
/// WindowSummary per process per epoch, and per-attachment
/// StreamingInference state keeps running vote counts — so an epoch costs
/// O(1) per process in the accumulated window length for every bundled
/// detector family (previously O(window)).
///
/// Every step runs one schedule: ONE shard dispatch over the system's live
/// slots. Each shard walks a contiguous slot range and
///   (1) steps every slot (SimSystem::step_slot: workload execution, HPC
///       capture, window fold, and its column of the feature plane),
///   (2) makes ONE batch detector call over its segment of the plane — a
///       measurement_votes sweep for vote-based detectors, infer_batch
///       otherwise — instead of one virtual call per process,
///   (3) folds the batch results into the per-attachment StreamingInference
///       running counts and plans each slot's monitor decision.
///
/// The route is what the detector declares (Detector::plane_sections),
/// re-read every step; there is no caller option:
///   * kNewestOnly / kStatsOnly — the detector has batch kernels over those
///     rows: the system maintains exactly those plane sections and every
///     shard takes phase (2);
///   * kFull — a raw-window model with no batch kernel (the LSTM,
///     out-of-tree detectors): no plane is armed, phase (2) is skipped and
///     every slot is served per slot by the scalar streaming path.
/// The per-slot path is also where the batch route sends any attachment the
/// vote fold cannot serve (mid-run attach catch-up, episode shrink) and any
/// shard whose batch call faulted, so neither route has code of its own
/// past the batch call. The batch kernels preserve the scalar accumulation
/// order, so both routes produce the same bits.
///
/// The detectors also size the system's raw-sample history
/// (Detector::raw_window, SimSystem::set_history_window): the constructor
/// sets it from the engine's detector, attach() widens it to a terminal
/// detector's window and step() widens it if the declaration grew. A vote
/// or summary detector reads no raw sample, so the system retains none.
/// Terminal detectors with a vote structure fold the newest measurement's
/// vote every epoch from attach, so they need no raw window either.
///
/// The dispatch is bracketed by serial phases: the CFS share snapshot
/// before (SimSystem::begin_epoch) and the command commit after. Every
/// monitor emits its ActuatorCommand into a per-shard buffer, drained
/// serially once the shards join (shared scheduler weights, cgroup caps and
/// kills mutate shared state). Every command touches only its own process,
/// so the committed state is independent of drain order and shard layout:
/// a step is bit-identical for any worker count to a plain sequential loop
/// (SimSystem::run_epoch, then per live attachment StreamingInference::infer
/// over window_summary followed by ValkyrieMonitor::on_epoch).
class ValkyrieEngine {
 public:
  using ActuatorFactory = std::unique_ptr<Actuator> (*)();

  /// Degraded-mode policy knobs, all in epochs/attempts.
  struct FaultToleranceConfig {
    /// Consecutive quarantined epochs a slot may coast on its last-known
    /// streaming verdict before the engine goes blind on it (skips the
    /// detector, emits kInvalid).
    std::uint64_t staleness_budget = 3;
    /// Failed attempts at a throttle command (apply/reset) before the
    /// retry ladder escalates it to a kill — "throttle fails N epochs ->
    /// escalate toward kill".
    std::uint32_t escalate_after = 4;
    /// Failed kill attempts before the command is dropped as unrecoverable
    /// (counted in FaultHealth; the process stays live and unrestrained).
    std::uint32_t max_kill_retries = 8;
  };

  /// Health/recovery counters for the degraded modes. Monotone over the
  /// engine's lifetime; run statistics, not state — never serialized (a
  /// restored engine starts its own tallies).
  struct FaultHealth {
    std::uint64_t coasted = 0;         // inferences served from stale state
    std::uint64_t blind = 0;           // epochs skipped past the budget
    std::uint64_t masked = 0;          // inferences on a partial feature plane
    std::uint64_t detector_faults = 0; // detector throws contained
    std::uint64_t sanitized = 0;       // garbage inference bits scrubbed
    std::uint64_t batch_fallbacks = 0; // batch kernels dropped to scalar
    std::uint64_t actuator_failures = 0;  // failed command attempts
    std::uint64_t retries = 0;         // retry attempts issued
    std::uint64_t escalations = 0;     // throttle commands escalated to kill
    std::uint64_t unrecoverable = 0;   // commands dropped after max retries
  };

  /// Arms (or, with nullptr, disarms) the runtime fault plane: sensor
  /// faults route into the system's sample validation, detector faults are
  /// contained per-slot, actuator commands consult the plane's failure
  /// schedule at commit time. Also enables the engine's hardening even for
  /// genuine (non-injected) detector/actuator exceptions. The plane is
  /// borrowed and must outlive the engine; not legal while an epoch is
  /// open. A plane with all-zero rates arms the machinery but keeps every
  /// fast path allocation- and draw-free.
  void arm_faults(const fault::FaultPlane* plane);

  void set_fault_tolerance(const FaultToleranceConfig& config) noexcept {
    fault_cfg_ = config;
  }
  [[nodiscard]] const FaultToleranceConfig& fault_tolerance() const noexcept {
    return fault_cfg_;
  }
  [[nodiscard]] const fault::FaultPlane* fault_plane() const noexcept {
    return fault_plane_;
  }

  /// A consistent copy of the health counters (relaxed loads — exact once
  /// the epoch's shards have joined).
  [[nodiscard]] FaultHealth fault_health() const noexcept;

  /// Pending actuator retries (failed commands awaiting backoff expiry).
  [[nodiscard]] std::size_t pending_retries() const noexcept {
    return retry_.size();
  }

  /// `worker_threads` <= 1 runs fully sequential (no pool, no threads).
  /// Requests beyond std::thread::hardware_concurrency() are clamped to it
  /// (when detectable): oversubscribed shards only add contention, and a
  /// silent 64-thread pool on a 4-core box is never what the caller meant.
  ValkyrieEngine(sim::SimSystem& sys, const ml::Detector& detector,
                 std::size_t worker_threads = 1);

  /// Attaches a process with its own config and actuator. A process can be
  /// attached at most once at a time (re-attach after detach() starts a
  /// fresh monitor; its streaming state catches up from the measurements
  /// the system still retains — see StreamingInference). Legal at any
  /// point of a run, including for a process whose mid-epoch admission is
  /// still pending — the monitor simply starts deciding from the process's
  /// first executed epoch on. If `terminal_detector` is non-null it
  /// provides the accumulated-window decision once N* measurements have
  /// been gathered (see ValkyrieMonitor::plan), and the system's history
  /// window widens to its raw_window(); it must outlive the engine.
  void attach(sim::ProcessId pid, ValkyrieConfig config,
              std::unique_ptr<Actuator> actuator,
              const ml::Detector* terminal_detector = nullptr);

  /// Detaches a process mid-run: its monitor (and any pending restrictions
  /// the monitor tracked) is discarded and the process keeps running
  /// unmonitored. Restrictions already applied to the system are NOT
  /// lifted — call the actuator's reset through the monitor beforehand if
  /// that is wanted. The process may be re-attached later with fresh
  /// state. The call itself is O(1): the entry is tombstoned, and a step
  /// compacts the attachment table in one stable pass only once tombstones
  /// exceed an eighth of it, so the pruning costs O(1) amortized per
  /// detach and churn drivers detaching every departure stay O(live) per
  /// epoch. Tombstones never reach an output or a snapshot.
  /// Throws std::out_of_range if the pid is not attached.
  void detach(sim::ProcessId pid);

  /// Pre-sizes the engine's per-process tables (attachments, the pid ->
  /// attachment index, per-shard command buffers and the per-slot batch
  /// scratch) for up to `max_processes` processes over the
  /// run's lifetime, mirroring SimSystem::reserve: after both, a
  /// steady-state churn epoch — spawn, attach, step, retire — performs no
  /// heap allocation.
  void reserve(std::size_t max_processes);

  /// One epoch: simulate, infer, respond. Returns the number of attached
  /// processes still live.
  std::size_t step();

  /// Runs `epochs` steps, reserving history capacity up front so the run
  /// is allocation-free in steady state.
  void run(std::size_t epochs);

  [[nodiscard]] const ValkyrieMonitor& monitor(sim::ProcessId pid) const;

  [[nodiscard]] bool is_attached(sim::ProcessId pid) const noexcept {
    return attached_index_.find(pid) != nullptr;
  }

  /// The action the process's monitor took in the most recent step()
  /// (kNone if the process was not live that epoch).
  [[nodiscard]] ValkyrieMonitor::Action last_action(sim::ProcessId pid) const;

  [[nodiscard]] sim::SimSystem& system() noexcept { return sys_; }
  [[nodiscard]] const sim::SimSystem& system() const noexcept { return sys_; }
  [[nodiscard]] const ml::Detector& detector() const noexcept {
    return detector_;
  }

  /// Captures the engine's response state (attachment table, streaming
  /// inference counts, step tag, retry table) plus the detector's
  /// compatibility fingerprint into `image`, overwriting every field and
  /// reusing its capacity. Detach tombstones are skipped — the captured
  /// table is the live attachments in attach order, which is all a
  /// tombstone-free restored engine needs to continue bit-identically. An
  /// actuator without snapshot support throws
  /// SerialError(kUnsupportedWorkload) and leaves the image partly
  /// overwritten.
  void snapshot_state(snapshot::EngineImage& image) const;

  /// SimSystem::snapshot_state of the driven system at this engine's
  /// width: its slots and rows are filled on the engine's pool.
  void snapshot_system(snapshot::SystemImage& image) const;

  /// An engine section that passed every check of stage_restore and has
  /// its actuators loaded, ready for commit_restore.
  class StagedRestore;

  /// Restore, first half: validates an engine section against this engine
  /// — the detector fingerprint, per attachment its fields, terminal
  /// fingerprint and a unique pid, the retry table's order and ranges —
  /// and loads every actuator through the context's registry, mutating
  /// nothing. Throws SerialError (kIncompatible, kMalformed,
  /// kUnsupportedWorkload) on the first violation. snapshot::restore
  /// stages before it commits the system, so an image only the engine
  /// refuses leaves the target untouched.
  [[nodiscard]] StagedRestore stage_restore(
      const snapshot::EngineImage& image,
      const snapshot::RestoreContext& ctx) const;

  /// Restore, second half: adopts a staged section by moves (then sizes
  /// the shard command buffers for it). The engine's own worker count is
  /// kept: bit-identity holds across worker counts, so it is
  /// run-configuration, not state.
  void commit_restore(StagedRestore staged);

  /// Shards a step runs in: worker threads + the caller (1 = sequential).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return pool_ != nullptr ? pool_->shard_count() : 1;
  }

  /// Shard dispatches issued to the pool so far (0 when sequential): one
  /// per epoch. Captures' dispatches are not counted.
  [[nodiscard]] std::uint64_t pool_dispatch_count() const noexcept {
    return pool_ != nullptr ? pool_->dispatch_count() - capture_dispatches_
                            : 0;
  }

  /// Schedule phases actually executed: pool dispatches + pool-inline runs
  /// + the engine's own sequential-phase executions. Unlike
  /// pool_dispatch_count() this does not read zero for single-shard runs,
  /// so it is the statistic benches record as dispatches-per-epoch: 1 per
  /// epoch, independent of worker count.
  [[nodiscard]] std::uint64_t schedule_run_count() const noexcept {
    const std::uint64_t pool_runs =
        pool_ != nullptr ? pool_dispatch_count() + pool_->inline_run_count()
                         : 0;
    return pool_runs + inline_runs_;
  }

 private:
  struct Attached {
    sim::ProcessId pid;
    ValkyrieMonitor monitor;
    const ml::Detector* terminal_detector = nullptr;
    ml::StreamingInference stream;           // running state for detector_
    ml::StreamingInference terminal_stream;  // ... for terminal_detector
    ValkyrieMonitor::Action last_action = ValkyrieMonitor::Action::kNone;
    // Step that wrote last_action. The step never visits attachments whose
    // process is already dead, so staleness is detected by tag instead of
    // by eagerly clearing every attachment.
    std::uint64_t last_action_step = 0;
    // Tombstone set by detach(); the entry is skipped by the step and by
    // capture (its index entry is already gone) and reclaimed by the first
    // prune_detached() after tombstones pass 1/kPruneRatio of the table.
    bool detached = false;
  };

  /// One failed actuator command awaiting its backoff expiry. The table is
  /// kept pid-sorted (each pid has at most one entry — commands coalesce),
  /// so its contents are independent of the order shards emit commands
  /// in, which keeps snapshots byte-identical across worker counts.
  struct PendingRetry {
    sim::ProcessId pid = 0;
    ActuatorCommand::Kind kind = ActuatorCommand::Kind::kNone;
    double delta = 0.0;           // accumulated throttle delta (kApply)
    std::uint32_t failures = 0;   // consecutive failed attempts
    std::uint64_t next_epoch = 0; // exponential backoff deadline
  };

  [[nodiscard]] const Attached& attachment(sim::ProcessId pid) const;

  /// Live attached processes, counted over the system's live list (O(live))
  /// rather than over every attachment ever made — under sustained churn
  /// the attachment table grows without bound while the live set stays
  /// small.
  [[nodiscard]] std::size_t live_attached_count() const;

  /// The per-slot path: one attachment's streaming inference over its
  /// window summary + monitor decision for the current step, appending any
  /// resulting command to `commands`.
  void infer_attachment(Attached& a, std::size_t slot,
                        std::vector<ActuatorCommand>& commands);

  /// Widens the system's history window to `window` (never narrows).
  void widen_history(std::size_t window);

  /// Phase (2) of a shard on the batch route: ONE detector call over the
  /// shard's plane segment (columns [begin, begin + segment.count)),
  /// writing the per-slot scratch. Returns false when the call threw under
  /// an armed fault plane — the shard then serves every slot per slot,
  /// which re-applies the per-column fault decisions deterministically.
  bool batch_segment(const ml::SummaryMatrixView& segment, std::size_t begin,
                     const std::optional<double>& fraction);

  /// Phase (3) of the batch route for one slot: its inference from the
  /// shard's batch results, with guarded_infer's fault accounting, or
  /// nullopt when the per-slot path must serve it instead (blind past the
  /// staleness budget, or a vote the fold cannot take: catch-up, episode
  /// shrink, a quarantined count).
  [[nodiscard]] std::optional<ml::Inference> batch_verdict(
      Attached& a, std::size_t slot, std::size_t count,
      const std::optional<double>& fraction);

  /// The hardened per-attachment inference (fault plane armed): coasts on
  /// stale streaming state while the slot's telemetry quarantine is within
  /// the staleness budget, goes blind (kInvalid) beyond it, contains any
  /// detector exception into kInvalid, and sanitizes out-of-range enum
  /// bits.
  [[nodiscard]] ml::Inference guarded_infer(Attached& a, std::size_t slot,
                                            const ml::WindowSummary& summary);

  /// Maps anything outside {kBenign, kMalicious, kInvalid} to kInvalid,
  /// counting the scrub.
  [[nodiscard]] ml::Inference sanitize(ml::Inference inference) noexcept;

  /// Attempts one actuator command against the system, consulting the
  /// fault plane's schedule first and containing genuine actuator throws.
  /// Returns false on (injected or real) failure.
  bool attempt_command(ActuatorCommand::Kind kind, sim::ProcessId pid,
                       double delta, std::uint64_t epoch);

  /// Commit-phase entry for one freshly planned command under the hardened
  /// path: coalesces with any pending retry for the pid, attempts now, and
  /// schedules/extends backoff on failure.
  void commit_command(const ActuatorCommand& cmd, std::uint64_t epoch);

  /// Walks the retry table once per commit: purges entries whose process is
  /// gone, escalates throttle commands past the failure threshold, retries
  /// due entries and reschedules or drops them.
  void process_retries(std::uint64_t epoch);

  /// Pid-sorted lookup into retry_ (retry_.size() when absent).
  [[nodiscard]] std::size_t find_retry(sim::ProcessId pid) const noexcept;

  /// The terminal detector's step for one attachment: a vote-structured
  /// detector folds the newest measurement every epoch (catching up
  /// through the summary when it cannot fold); any other one runs only at
  /// the terminable decision. Returns the verdict once the monitor is
  /// terminable, nullopt before. `summary` may be null — it is then
  /// assembled on demand, so the batch route only pays for summaries on
  /// rare catch-up and terminable epochs.
  [[nodiscard]] std::optional<ml::Inference> terminal_verdict(
      Attached& a, std::size_t slot, const ml::WindowSummary* summary);

  /// The decision tail shared by both routes: terminal-detector step
  /// (when armed), monitor plan, action bookkeeping, command emission.
  void finish_attachment(Attached& a, std::size_t slot,
                         const ml::WindowSummary* summary,
                         ml::Inference inference,
                         std::vector<ActuatorCommand>& commands);

  /// Serially applies the per-shard command buffers, in shard order.
  void commit_shard_commands();

  /// One stable compaction pass over the attachment table, reclaiming
  /// tombstoned entries and re-deriving the pid index for survivors. step()
  /// runs it only once tombstones exceed 1/kPruneRatio of the table, so its
  /// O(table) cost is paid once per ~table/kPruneRatio detaches.
  void prune_detached();

  /// Tombstone share of attached_ past which step() prunes: between prunes
  /// the table holds at most one tombstone per kPruneRatio - 1 live
  /// entries, the slack reserve() sizes for.
  static constexpr std::size_t kPruneRatio = 8;

  /// Commands one shard can emit for `items` work items: each item yields
  /// at most one command and a shard owns at most one ceil-chunk of items.
  [[nodiscard]] std::size_t shard_quota(std::size_t items) const noexcept {
    const std::size_t shards = shard_commands_.size();
    return (items + shards - 1) / shards;
  }

  /// Grows every shard buffer's capacity to `per_shard` (no-op, and
  /// allocation-free, once steady state is reached).
  void reserve_shard_buffers(std::size_t per_shard);

  sim::SimSystem& sys_;
  const ml::Detector& detector_;
  std::vector<Attached> attached_;
  // pid -> index into attached_ (absent = not attached): O(1) monitor
  // lookup for callers and for the shards. Robin-hood hashed, so the table
  // is O(attached), not O(largest pid ever) — million-pid churn runs keep
  // it flat. Mutated only in the serial phases (attach / detach / prune /
  // restore); the parallel shards perform const lookups only.
  util::PidMap<std::uint32_t> attached_index_;
  std::unique_ptr<util::ThreadPool> pool_;  // null when sequential
  // One pre-reserved command buffer per shard, reused every epoch.
  std::vector<std::vector<ActuatorCommand>> shard_commands_;
  // Per-slot scratch (finished flags + batch outputs), indexed like the
  // live list; each shard writes only its own slot range. Capacity grows
  // monotonically, so the steady-state epoch allocates nothing.
  std::vector<std::uint8_t> batch_finished_;
  std::vector<std::uint8_t> batch_votes_;
  std::vector<ml::Inference> batch_infer_;
  std::uint64_t step_tag_ = 0;  // bumped at the start of every step()
  std::size_t detached_count_ = 0;  // tombstones in attached_
  // --- Fault plane / degraded modes (null plane + empty retry table keeps
  // every fault-free path untouched) ------------------------------------------
  const fault::FaultPlane* fault_plane_ = nullptr;  // borrowed, may be null
  FaultToleranceConfig fault_cfg_{};
  std::vector<PendingRetry> retry_;  // pid-sorted; serialized in snapshots
  // Health counters. Relaxed atomics: the inference-side counters are
  // bumped from parallel shards; the commit-side ones only serially. Run
  // statistics, never serialized.
  std::atomic<std::uint64_t> health_coasted_{0};
  std::atomic<std::uint64_t> health_blind_{0};
  std::atomic<std::uint64_t> health_masked_{0};
  std::atomic<std::uint64_t> health_detector_faults_{0};
  std::atomic<std::uint64_t> health_sanitized_{0};
  std::atomic<std::uint64_t> health_batch_fallbacks_{0};
  std::atomic<std::uint64_t> health_actuator_failures_{0};
  std::atomic<std::uint64_t> health_retries_{0};
  std::atomic<std::uint64_t> health_escalations_{0};
  std::atomic<std::uint64_t> health_unrecoverable_{0};
  // Sequential-phase executions when no pool exists (see
  // schedule_run_count); pool-inline runs are counted by the pool itself.
  std::uint64_t inline_runs_ = 0;
  // Pool dispatches made by snapshot_system, kept out of the per-epoch
  // schedule statistics. A capture dispatches only for two or more items,
  // so the pool never counts it as an inline run.
  mutable std::uint64_t capture_dispatches_ = 0;
};

class ValkyrieEngine::StagedRestore {
  friend class ValkyrieEngine;
  std::vector<Attached> attached_;
  util::PidMap<std::uint32_t> index_;
  std::vector<PendingRetry> retries_;
  std::uint64_t step_tag_ = 0;
};

}  // namespace valkyrie::core
