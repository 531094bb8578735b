// The epoch-driven system simulator: owns processes (each wrapping a
// Workload), their CFS-style scheduler weights, and cgroup-style resource
// caps. Each call to run_epoch() advances simulated wall-clock time by one
// measurement epoch, computes every process's effective resource shares,
// executes the workloads and records their HPC samples.
//
// Per-process hot state lives in a structure-of-arrays core: dense parallel
// arrays indexed by *live slot* (CFS weight factor, rng, cgroup caps,
// effective shares, last sample, window accumulator, last progress, epoch
// count, exit flag), kept compact by a stable compaction pass whenever a
// process exits. Cold state (the workload object, the retained window of
// raw samples, and a snapshot of the hot fields taken when the process
// retires) sits in separate pooled rows so it never pollutes the hot
// stride. How many raw samples a row
// retains is one number, the history window (set_history_window): every
// sample for a bare system, and exactly what its detectors read once a
// ValkyrieEngine drives it — none at all for vote and summary detectors.
// A robin-hood pid map (util::PidMap<PidRec>: pid -> {slot, cold row}), the
// one pid-keyed table, makes every pid-addressed accessor O(1) while the
// epoch loop walks slots 0..live-1 with unit stride — and, unlike the dense
// pid-indexed remap it replaces, its memory is O(tracked processes), not
// O(every pid ever spawned): under churn with the retention policy armed
// (enable_retirement_retention) a 10M-spawn run holding thousands live
// keeps a thousands-sized table forever.
//
// An epoch splits into a serial global phase (begin_epoch: one CFS
// total-weight sum over the live slots, so each share is O(1)), a
// per-slot phase (step_slot: workload execution, HPC capture,
// window-statistics fold) that is embarrassingly parallel for distinct
// slots, and a serial close (end_epoch: epoch count + boundary commit of
// every lifecycle delta — completions and deferred kills retire, deferred
// admissions append). run_epoch() drives the three phases itself;
// ValkyrieEngine runs its own per-slot inference after step_slot inside a
// single shard dispatch. Either way results are bit-identical to the
// sequential path for any shard count.
//
// The per-slot WindowAccumulator is the only window state. The optional
// feature plane (enable_feature_plane) is a cache derived from it for
// batch detector kernels, rewritten every epoch.
//
// The process set is OPEN: spawn() and kill() are legal at any point of a
// run, including while an epoch is open. Mid-epoch calls do not mutate the
// hot arrays under the running shards — they enqueue, and the deltas commit
// at the epoch boundary (see spawn/kill below), so the frozen slot layout
// the dispatch relies on survives and results stay bit-identical at any
// worker count. reserve() pre-grows every table so steady-state churn
// (spawn + retire every epoch) performs no heap allocation at all.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hpc/hpc.hpp"
#include "ml/detector.hpp"
#include "ml/window_accumulator.hpp"
#include "sim/platform.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"
#include "util/pid_map.hpp"
#include "util/rng.hpp"

namespace valkyrie::util {
class ThreadPool;
}

namespace valkyrie::snapshot {
struct SystemImage;
class WorkloadRegistry;
}  // namespace valkyrie::snapshot

namespace valkyrie::fault {
class FaultPlane;
}

namespace valkyrie::sim {

/// Why a process is no longer runnable.
enum class ExitReason : std::uint8_t { kRunning, kCompleted, kKilled };

class SimSystem {
 public:
  explicit SimSystem(const PlatformProfile& platform = {},
                     std::uint64_t seed = 0x5a1f);

  /// Adds a process; returns its id. The process starts unthrottled.
  /// Between epochs the admission is immediate (the process is live right
  /// away and first runs in the next epoch). While an epoch is open the
  /// admission is DEFERRED: the pid is assigned and the cold row created
  /// now, but the hot-array slot and liveness commit at the epoch boundary
  /// (end_epoch/abort_epoch), in spawn order, after retirement compaction
  /// — so slot order stays ascending-pid and the open epoch's frozen slot
  /// layout is never disturbed. Either way the
  /// process first executes in the epoch after the one it was admitted
  /// into (Eq. 3 next-epoch timing). Not thread-safe: call from the serial
  /// phases only, never from inside a shard. Throws std::length_error once
  /// every pid below kFreeRow has been allocated.
  ProcessId spawn(std::unique_ptr<Workload> workload);

  /// Pre-grows every per-process table — the SoA hot arrays, the cold-row
  /// pool, the pid map, the lifecycle queues, the retirement pool and
  /// (when enabled) the feature plane — for up to
  /// `max_processes` processes TRACKED SIMULTANEOUSLY (live + retired rows
  /// not yet reclaimed). Without the retention policy every process ever
  /// spawned stays tracked, so this is the lifetime total, as before; with
  /// enable_retirement_retention it is the peak population, and total
  /// spawns are unbounded. After this, steady-state churn (spawn + exit
  /// every epoch) allocates nothing until the reservation is exhausted;
  /// pair with reserve_history() and enable_history_recycling() to make
  /// the whole churn loop allocation-free. Must not be called while an
  /// epoch is open.
  void reserve(std::size_t max_processes);

  /// Arms the retirement pool: when a process retires, its sample-history
  /// buffer is recycled into the next admission (capacity and all) and its
  /// workload is destroyed, instead of both being kept forever. This is
  /// what makes multi-thousand-process churn runs bounded in memory AND
  /// allocation-free in steady state — at the cost of narrowing the
  /// retired-observability contract: for a recycled pid, sample_history()
  /// answers empty and workload() throws, while the scalar retirement
  /// snapshot (exit reason, last sample, window statistics, progress,
  /// epochs run) keeps answering as before. Off by default so fixed-
  /// population drivers keep full post-mortem access.
  void enable_history_recycling() { recycle_histories_ = true; }

  /// Arms TRUE cold-row reclamation: a retired process stays observable
  /// (exit reason, last sample, window statistics, final scheduler
  /// weight — the full retired-observability contract) for `window_epochs`
  /// epochs after its retirement, then its pid map entry and cold row are
  /// reclaimed entirely — after that every pid-addressed accessor throws
  /// std::out_of_range for the pid, exactly as for a pid never spawned.
  /// This is what bounds a churning run's memory by its PEAK population
  /// instead of its total spawn count (the 10M-process flat-RSS regime);
  /// reclaimed rows and history buffers recycle into later admissions, so
  /// steady-state churn stays allocation-free. Applies to retirements from
  /// the call onward; processes already retired are never reclaimed.
  /// Reclamation runs at epoch boundaries (the same serial commit point as
  /// every other lifecycle mutation, so all worker counts reclaim
  /// identically). Throws std::invalid_argument on a zero window
  /// (drivers read exit state at the boundary that retires a process, so
  /// the state must survive at least one epoch) and std::logic_error while
  /// an epoch is open. Calling again adjusts the window.
  void enable_retirement_retention(std::uint64_t window_epochs);

  [[nodiscard]] bool retirement_retention_enabled() const noexcept {
    return retention_enabled_;
  }

  /// Runs one measurement epoch for every live process. With a pool the
  /// per-slot phase is sharded across its workers; results are
  /// bit-identical to the sequential path for any shard count.
  void run_epoch(util::ThreadPool* pool = nullptr);

  /// Runs `n` epochs. Reserves history capacity for all `n` up front, so
  /// multi-epoch drivers are allocation-free without remembering to call
  /// reserve_history themselves.
  void run_epochs(std::size_t n, util::ThreadPool* pool = nullptr);

  /// Pre-reserves capacity for `epochs` further samples in every live
  /// process's history, capped at the history window (nothing at window
  /// 0), so the per-epoch hot path performs no heap allocation until the
  /// reservation is exhausted.
  void reserve_history(std::size_t epochs);

  // --- Epoch driver API -----------------------------------------------------
  //
  // run_epoch() is built from these three phases; external drivers (the
  // engine's step) call them directly so per-process work of their own can
  // run inside the same shard dispatch as the simulation:
  //
  //   begin_epoch();                  // serial: share snapshot
  //   for slot in shards of [0, live_processes().size()):
  //     step_slot(slot);              // parallel-safe for distinct slots
  //   end_epoch();                    // serial: ++epoch, lifecycle commit
  //
  // Between begin_epoch and end_epoch the live list and the pid -> slot
  // remap are frozen: slot i corresponds to live_processes()[i] for the
  // whole dispatch — spawn() and kill() during that window enqueue instead
  // of mutating (see the boundary-commit order under end_epoch). On an
  // exception out of the dispatch call abort_epoch() instead of
  // end_epoch(): lifecycle deltas still commit (a retry must not
  // re-execute completed workloads or lose an admission) but the epoch
  // does not count.

  /// Serial epoch-open phase: sums the CFS total weight and arms the
  /// per-slot phase. Throws std::logic_error if an epoch is already open.
  void begin_epoch();

  /// Runs one live slot's process for the open epoch: effective shares,
  /// workload execution, HPC capture, history append (within the history
  /// window), window fold. Safe to call concurrently for distinct slots.
  /// Returns true if the workload ran to natural completion this epoch.
  bool step_slot(std::size_t slot);

  /// Serial epoch-close phase: advances the epoch count, then commits
  /// every lifecycle delta gathered while the epoch was open, in a fixed
  /// boundary order: (1) deferred kills mark their slots (a natural
  /// completion in the same epoch wins — the process finished before the
  /// kill could land), (2) one stable compaction pass retires every
  /// finished/killed slot, taking its weight out of the CFS total, (3)
  /// deferred admissions append in spawn order — new pids are maximal, so
  /// slot order stays ascending-pid.
  void end_epoch();

  /// Epoch-close for an aborted dispatch (a workload threw): commits the
  /// same lifecycle deltas as end_epoch (a retry must not re-execute
  /// completed workloads or lose an admission) but leaves the epoch count
  /// untouched.
  void abort_epoch();

  // --- Cross-slot feature plane --------------------------------------------
  //
  // A feature-major cache over the live slots for batch detector kernels:
  // row f of each armed group (newest features; window mean + stddev) holds
  // that feature for every live slot, rows are `stride` doubles apart
  // (stride = slot capacity padded to a full cache line of doubles).
  // step_slot() writes its slot's column and count from the freshly folded
  // accumulator, so after an epoch's per-slot phase the plane carries
  // exactly the bits window_summary() would assemble per process — batch
  // kernels sweep it with unit-stride inner loops instead of gathering one
  // WindowSummary at a time. The plane holds no state of its own: rows
  // exist only for the armed sections and nothing reads a column before
  // the epoch's per-slot phase rewrites it. It is per-epoch scratch, so
  // slot compaction leaves the columns where they are (only the count row
  // is resized) and a restore sizes it without filling it.

  /// Arms per-slot plane maintenance for the given sections — what a batch
  /// driver's detector declares it reads (Detector::plane_sections; kFull
  /// arms both groups). Re-enabling widens the maintained set and regrows
  /// the rows. A newest-only plane costs kFeatureDim strided stores per
  /// slot per epoch, the stats group twice that plus the stddev square
  /// roots; disabled by default so scalar drivers pay nothing. Must not be
  /// called mid-epoch.
  void enable_feature_plane(ml::Detector::PlaneSections sections);

  [[nodiscard]] bool feature_plane_enabled() const noexcept {
    return plane_enabled_;
  }

  /// The plane over all live slots (column i = live_processes()[i]). Rows
  /// of an unarmed section read as null pointers, and `windows` is always
  /// null. Valid after the epoch's per-slot phase has filled it and until
  /// the next process-set mutation (a compaction leaves its columns behind).
  [[nodiscard]] ml::SummaryMatrixView feature_plane() const noexcept;

  /// A live slot's window accumulator (batch drivers that already hold the
  /// slot index; the pid-addressed window_accumulator() re-derives it).
  [[nodiscard]] const ml::WindowAccumulator& slot_accumulator(
      std::size_t slot) const noexcept {
    return accum_s_[slot];
  }

  /// A live slot's quarantine streak: invalid_streak() for drivers that
  /// already hold the slot index, without the pid-map probe.
  [[nodiscard]] std::uint64_t slot_invalid_streak(
      std::size_t slot) const noexcept {
    return invalid_streak_s_[slot];
  }

  // --- Counter-based per-slot RNG -------------------------------------------

  /// Switches the master RNG and every per-slot stream to counter mode
  /// (util::Rng::counter_stream): each draw is a pure hash of (stream seed,
  /// epoch, draw index), so a slot's epoch draws are position-independent —
  /// no serial state walk — and cheaper per normal() than xoshiro +
  /// Box-Muller (inverse-CDF on a single draw). The switch CHANGES the
  /// simulated randomness (opt-in, off by default: the xoshiro streams
  /// stay the repo-wide reproducibility baseline); within counter mode,
  /// runs are deterministic across worker counts and
  /// snapshot/restore replays bit-identically (the mode is carried by the
  /// image). Must not be called while an epoch is open; idempotent.
  void enable_counter_rng();

  [[nodiscard]] bool counter_rng_enabled() const noexcept {
    return counter_rng_;
  }

  // --- History window --------------------------------------------------------

  /// How many of the newest raw samples every process's history retains:
  /// 0 appends nothing (step_slot never touches the cold row's history), a
  /// finite n keeps a fixed-size ring of the newest n — once full, the
  /// oldest sample is overwritten in place — and ml::Detector::kWholeWindow
  /// (the default of a bare system) keeps every sample. Consumers see the
  /// retained window as a span pair (WindowSummary::window / window_wrap,
  /// oldest first). Streaming statistics are unaffected: the accumulator
  /// folds every sample regardless of what the history retains.
  /// ValkyrieEngine sets this from its detector's raw_window(). Shrinking
  /// trims every existing history to its newest `window` samples; widening
  /// keeps what is retained and grows from there. Throws std::logic_error
  /// while an epoch is open.
  void set_history_window(std::size_t window);

  [[nodiscard]] std::size_t history_window() const noexcept {
    return history_window_;
  }

  /// Ordered view of one process's retained samples: `older` then `newer`
  /// is oldest-first (`newer` is empty until a finite ring wraps, so
  /// whole-window histories read as a single span).
  struct HistoryView {
    std::span<const hpc::HpcSample> older{};
    std::span<const hpc::HpcSample> newer{};
    [[nodiscard]] std::size_t size() const noexcept {
      return older.size() + newer.size();
    }
    [[nodiscard]] const hpc::HpcSample& operator[](
        std::size_t i) const noexcept {
      return i < older.size() ? older[i] : newer[i - older.size()];
    }
  };
  [[nodiscard]] HistoryView history_view(ProcessId pid) const;

  // --- Sensor fault plane ----------------------------------------------------
  //
  // When armed, step_slot injects the plane's seeded per-(epoch, pid)
  // sensor faults into the captured HPC sample and then VALIDATES every
  // sample before committing it to the window state: a dropped, stuck,
  // non-finite or saturated sample commits NOTHING — no history append, no
  // accumulator fold, no plane-column store, no last_sample update — so
  // garbage never enters the telemetry the detectors (or a snapshot) see.
  // The slot's invalid streak counts consecutive quarantined epochs and
  // resets to zero on the first valid sample; engines use it to coast and
  // eventually blind the detector for that slot. Execution itself is
  // unaffected: the workload still runs, progress and epochs_run still
  // advance, and the per-slot RNG stream is untouched — which is what
  // keeps faulted runs bit-reproducible across worker counts.
  //
  // With a per-feature plane (sensor.feature_fraction < 1), a non-dropout
  // fault corrupts individual counters and validation quarantines only the
  // offending columns: the bad counters are REPAIRED to their last
  // committed values, the repaired sample commits to history/last_sample,
  // and the window fold excludes the repaired columns from the statistics
  // (WindowAccumulator::add_masked — the column's "newest" becomes the
  // last-known running mean, a zero z-score). A one-counter fault
  // therefore costs one column's freshness, not the whole process's
  // telemetry; only a fully-corrupted bank (or a first-epoch fault, which
  // has nothing to hold) still quarantines the whole sample.

  /// Arms (plane != nullptr) or disarms sensor-fault injection. Validates
  /// the plane's configured rates first (FaultPlane::validate — throws
  /// std::invalid_argument on a degenerate rate). The plane is borrowed,
  /// not owned, and must outlive the system. Must not be called while an
  /// epoch is open.
  void arm_sensor_faults(const fault::FaultPlane* plane);

  /// Consecutive epochs this live process's telemetry has been quarantined
  /// (0 = the latest sample was valid). Always 0 for retired pids. Partial
  /// (per-feature) quarantines COMMIT a repaired sample and reset this
  /// streak — the per-column staleness lives in feature_streaks().
  [[nodiscard]] std::uint64_t invalid_streak(ProcessId pid) const;

  /// Per-feature staleness: consecutive epochs feature f's telemetry has
  /// been quarantined for this process (whole-sample quarantines count
  /// against every feature; a live fold of feature f resets entry f). All
  /// zeros for retired pids and while no fault plane is armed.
  [[nodiscard]] std::array<std::uint32_t, hpc::kFeatureDim> feature_streaks(
      ProcessId pid) const;

  // --- Actuator-facing controls -------------------------------------------

  /// cgroup-style caps, as fractions of default. Only the fields the caller
  /// sets are changed (std::nullopt leaves a dimension untouched).
  void set_cgroup_caps(ProcessId pid, std::optional<double> cpu,
                       std::optional<double> mem, std::optional<double> net,
                       std::optional<double> fs);

  /// Removes all cgroup caps for the process.
  void clear_cgroup_caps(ProcessId pid);

  /// CFS-weight demotion/promotion for a threat-index change (Eq. 8). A
  /// no-op for a retired process: a late command must not resurrect its
  /// weight. Throws std::invalid_argument on a NaN delta, so every factor
  /// stays in [min_share_fraction, 1].
  void apply_sched_threat_delta(ProcessId pid, double delta_threat);

  /// Restores the default scheduler weight; a no-op for a retired process.
  void reset_sched_weight(ProcessId pid);

  /// Kills the process (termination response). Between epochs the slot is
  /// marked dead immediately (is_live/exit_reason answer right away) and
  /// retires in one batched compaction pass at the next live_processes()
  /// or begin_epoch; the pid-addressed observers keep returning the state
  /// the process died with throughout. While an epoch is open the kill is
  /// DEFERRED to the boundary: the process still runs the open epoch in
  /// full (so results don't depend on where in the dispatch the call
  /// landed), then retires at end_epoch — unless it completed naturally in
  /// that same epoch, in which case the completion wins. Killing a
  /// process whose admission is still pending cancels the admission: it
  /// never runs, and exits as kKilled.
  void kill(ProcessId pid);

  // --- Observers -----------------------------------------------------------

  [[nodiscard]] std::uint64_t current_epoch() const noexcept { return epoch_; }
  /// Processes ever spawned; pids are dense in [0, total_spawned()), so
  /// this bounds post-run censuses over live and retired processes alike —
  /// though under the retention policy a reclaimed pid inside that range
  /// answers out_of_range like any unknown pid.
  [[nodiscard]] std::size_t total_spawned() const noexcept {
    return next_pid_;
  }
  /// Processes currently tracked: live + retired-but-not-yet-reclaimed.
  /// Without retention this equals total_spawned(); with it, the churn
  /// soak tests pin that it stays bounded by peak population.
  [[nodiscard]] std::size_t tracked_processes() const noexcept {
    return pid_map_.size();
  }
  /// Bucket count of the pid map — the bounded-memory proof reads this:
  /// it follows peak tracked population, never total spawns.
  [[nodiscard]] std::size_t pid_table_capacity() const noexcept {
    return pid_map_.capacity();
  }
  /// Cold rows allocated (live + retired + free pooled rows awaiting
  /// reuse) — bounded by peak population under retention.
  [[nodiscard]] std::size_t cold_rows_allocated() const noexcept {
    return cold_.size();
  }
  [[nodiscard]] double elapsed_ms() const noexcept {
    return static_cast<double>(epoch_) * platform_.epoch_ms;
  }
  [[nodiscard]] const PlatformProfile& platform() const noexcept {
    return platform_;
  }

  /// False for retired processes AND for processes whose mid-epoch
  /// admission has not committed yet (they become live at the boundary).
  [[nodiscard]] bool is_live(ProcessId pid) const;
  [[nodiscard]] ExitReason exit_reason(ProcessId pid) const;
  /// Throws std::logic_error for a retired pid whose workload was
  /// reclaimed by the retirement pool (enable_history_recycling()).
  [[nodiscard]] const Workload& workload(ProcessId pid) const;
  [[nodiscard]] Workload& workload(ProcessId pid);

  /// Effective shares the process received in the most recent epoch.
  [[nodiscard]] const ResourceShares& effective_shares(ProcessId pid) const;

  /// Current cgroup caps for the process (defaults are all 1.0).
  [[nodiscard]] const ResourceShares& cgroup_caps(ProcessId pid) const;

  /// CFS weight factor relative to the default weight, in
  /// [min_share_fraction, 1]: 1 = untouched, lower = demoted by the
  /// actuator. A retired process answers with the last factor it held.
  [[nodiscard]] double weight_factor(ProcessId pid) const;

  /// Most recent HPC sample (empty sample before the first epoch).
  [[nodiscard]] const hpc::HpcSample& last_sample(ProcessId pid) const;

  /// The retained raw samples: every sample captured so far, oldest first,
  /// under the whole-window default; only the newest history_window() of
  /// them otherwise, in ring order once a finite ring has wrapped
  /// (history_view() reads them oldest-first); empty at window 0. Empty
  /// too for a retired pid whose buffer was reclaimed by the retirement
  /// pool.
  [[nodiscard]] const std::vector<hpc::HpcSample>& sample_history(
      ProcessId pid) const;

  /// Streaming statistics over the process's accumulated window, maintained
  /// in O(kFeatureDim) per epoch alongside the history (so per-epoch
  /// inference never re-derives features from the full window). The
  /// returned summary carries the retained raw window for detectors that
  /// read it.
  [[nodiscard]] ml::WindowSummary window_summary(ProcessId pid) const;

  /// The accumulator itself (for callers that only want the running stats).
  [[nodiscard]] const ml::WindowAccumulator& window_accumulator(
      ProcessId pid) const;

  /// Progress the process made in the most recent epoch (B^t_i).
  [[nodiscard]] double last_progress(ProcessId pid) const;

  /// Number of epochs the process has actually executed.
  [[nodiscard]] std::uint64_t epochs_run(ProcessId pid) const;

  /// The live process ids, ascending. Slot i of the hot arrays belongs to
  /// live_processes()[i] (the compaction is stable, so slot order is always
  /// ascending pid order). The span is valid until the next mutation of the
  /// process set (spawn, kill, or an epoch with completions).
  [[nodiscard]] std::span<const ProcessId> live_processes() const;

  // --- Snapshot/restore ------------------------------------------------------

  /// Captures the full simulator state at a closed epoch boundary into
  /// `image`, overwriting every field and reusing the capacity of its
  /// tables and payloads: the SoA hot arrays exactly as they stand
  /// (including slots marked dead but not yet compacted), the tracked cold
  /// rows keyed by pid (sparse — reclaimed pids simply have no row) with
  /// workloads serialized through their snapshot hooks and one weight
  /// entry each, the master RNG, and the retention state.
  /// Everything keyed is emitted in ascending-pid order, so capture bytes
  /// are independent of hash-table layout: the cold rows are walked in row
  /// order, which is pid order unless retention handed a reclaimed row to
  /// a later spawn (only then are they sorted). Slots and rows are filled
  /// on `pool` when one is given (it then runs one dispatch, and only for
  /// two or more items), after a serial pass that finds any workload
  /// without snapshot support — so the bytes, and which error is thrown,
  /// do not depend on the worker count. Reads raw members — never
  /// live_processes(), whose logically-const compaction would change the
  /// state being captured. Throws std::logic_error while an epoch is open
  /// (snapshots are epoch-consistent by construction) and
  /// SerialError(kUnsupportedWorkload) if a tracked workload lacks
  /// snapshot support; the image is then partly overwritten.
  void snapshot_state(snapshot::SystemImage& image,
                      util::ThreadPool* pool = nullptr) const;

  /// As above, into a fresh image.
  [[nodiscard]] snapshot::SystemImage snapshot_state() const;

  /// Rebuilds this system from a captured image, bit-identically: a run
  /// continued from the restored state produces exactly the bytes the
  /// uninterrupted run would, for any worker count. The
  /// existing process population is discarded wholesale. Throws
  /// std::logic_error if an epoch is open (the same guard family as
  /// reserve/spawn-while-open), SerialError(kIncompatible) when the
  /// image's platform/scheduler numeric configuration does not match this
  /// system's, and SerialError(kMalformed) on structural violations (a
  /// weight factor outside [min_share_fraction, 1] among them) — all
  /// before any state is mutated, so a failed restore leaves the target
  /// untouched.
  void restore_from(const snapshot::SystemImage& image,
                    const snapshot::WorkloadRegistry& registry);

 private:
  // PidRec::slot sentinels. Real slots are < kPendingSlot, so is_hot_slot()
  // is a single compare.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;      // retired
  static constexpr std::uint32_t kPendingSlot = 0xfffffffeu; // admission queued

  [[nodiscard]] static constexpr bool is_hot_slot(std::uint32_t slot) noexcept {
    return slot < kPendingSlot;
  }

  /// The pid map's payload: where a tracked pid's state lives. `slot`
  /// indexes the SoA hot arrays (or a lifecycle sentinel above); `row`
  /// indexes the cold-row pool and is stable for the pid's whole tracked
  /// lifetime (rows never move — history spans stay valid across
  /// compactions, exactly as the old pid-indexed cold table guaranteed).
  struct PidRec {
    std::uint32_t slot = kNoSlot;
    std::uint32_t row = 0;
  };

  /// Snapshot of the hot fields a process died with, so pid-addressed
  /// observers keep working after the slot is recycled. Before admission
  /// it holds the weight and caps set while pending, which admit_slot
  /// seeds the slot from.
  struct RetiredState {
    double factor = 1.0;
    ResourceShares cgroup{};
    ResourceShares effective{};
    hpc::HpcSample last_sample{};
    ml::WindowAccumulator accumulator{};
    double last_progress = 0.0;
    std::uint64_t epochs_run = 0;
    ExitReason exit = ExitReason::kRunning;
  };

  /// ColdProc::pid of a row in the free pool. Never a tracked pid: spawn
  /// refuses to allocate it and restore refuses an image that reaches it.
  static constexpr ProcessId kFreeRow = 0xffffffffu;

  /// Per-pid cold table: pointer-chased or growing state the hot stride
  /// must not carry, plus the retirement snapshot. Never moves once
  /// created, so history spans stay valid across compactions.
  struct ColdProc {
    /// The tracked pid this row belongs to (kFreeRow once reclaimed), so a
    /// capture can walk the rows without the pid map.
    ProcessId pid = kFreeRow;
    std::unique_ptr<Workload> workload;
    std::vector<hpc::HpcSample> history;
    /// Ring write position under a finite history window: once the buffer
    /// holds history_window_ samples, the next sample overwrites
    /// history[head] (the oldest). Always 0 while the ring is filling, so
    /// a nonzero head means the ring has wrapped.
    std::size_t head = 0;
    RetiredState retired{};
  };

  /// pid -> {slot, row}, throwing std::out_of_range on an unknown (never
  /// spawned, or reclaimed) pid; rec.slot is kNoSlot for a retired
  /// process, kPendingSlot for one whose admission is queued.
  [[nodiscard]] PidRec rec_checked(ProcessId pid) const;

  /// Pops a free cold row (or appends one) for a new spawn. The returned
  /// row is fully reset (no workload, empty history, default retirement
  /// snapshot).
  [[nodiscard]] std::uint32_t alloc_row();

  /// Returns a reclaimed pid's cold row to the free pool: history buffer
  /// donated to the retirement pool (capacity intact), workload destroyed,
  /// retirement snapshot cleared.
  void release_row(std::uint32_t row);

  /// Retention-window reclamation (boundary-serial, end of every lifecycle
  /// commit): pops expired entries off the retirement FIFO and reclaims
  /// their pid map entries and cold rows.
  void drain_retired();

  /// Appends the hot-array slot for an already-created cold row: forks the
  /// master RNG, hot fields (weight and cgroup caps seeded from the retired
  /// snapshot, where pending-state mutators land), plane side arrays. The
  /// immediate-spawn path and the boundary admission commit share it, so
  /// the two cannot drift.
  void admit_slot(ProcessId pid);

  /// Boundary commit of the lifecycle queues (end_epoch/abort_epoch):
  /// deferred kills -> retirement compaction -> admissions in spawn order.
  void commit_lifecycle();

  /// Retirement-pool reclaim of one retired cold row: donates the history
  /// buffer (capacity intact), destroys the workload. The scalar retirement
  /// snapshot stays (release_row is the full reclaim).
  void reclaim_cold(ColdProc& cold);

  /// Stable compaction: retires every slot whose exit flag is set,
  /// snapshotting the dead processes' hot fields (weight included) into
  /// their cold entries, and (when recycling is armed) returning their
  /// history buffers to the retirement pool. Survivors after the first
  /// dead slot shift down a maximal run at a time, one memmove per hot
  /// array (ascending pid order preserved), and only the moved slots' pid
  /// map entries are rewritten. The feature plane is scratch and stays
  /// behind; only its count row is resized.
  void retire_dead_slots();

  /// Visits the slot-indexed hot arrays as f(std::vector<T>&) — the one
  /// list reserve(), the compaction's moves and resize, and restore_from's
  /// resize share, so an array added later cannot be missed by one of
  /// them. The plane is per-epoch scratch, not on it.
  template <typename F>
  void for_each_hot_array(F&& f);

  /// Grows the plane to the current slot count and armed rows; never
  /// shrinks, so the stride follows the peak live slot count. A growth
  /// wipes the columns instead of migrating them — the next per-slot phase
  /// rewrites every live column before anything reads it. After reserve()
  /// the storage already has capacity for the widest plane at the reserved
  /// count, so growth allocates nothing. No-op when the plane is disabled.
  void reserve_plane();

  /// Rows the plane carries: one kFeatureDim group per armed section
  /// (newest; mean + stddev).
  [[nodiscard]] std::size_t plane_rows() const noexcept {
    return (plane_newest_ ? hpc::kFeatureDim : 0) +
           (plane_stats_ ? 2 * hpc::kFeatureDim : 0);
  }

  /// The process's retained window as the oldest-first span pair (wrap
  /// empty until a finite ring actually wraps).
  void history_spans(const ColdProc& cold,
                     std::span<const hpc::HpcSample>& older,
                     std::span<const hpc::HpcSample>& wrap) const;

  /// The weight factor the scheduler mutators change: the live slot's, or
  /// a pending admission's in its retired snapshot; nullptr for a retired
  /// process. Throws std::out_of_range on an unknown pid.
  [[nodiscard]] double* mutable_factor(ProcessId pid);

  /// Applies the armed fault plane's scheduled sensor fault for
  /// (current epoch, slot's pid) to `sample` in place, then validates the
  /// result. Returns true when the whole sample must be quarantined
  /// (dropped, non-finite, saturated, or a bit-exact stuck repeat). In
  /// per-feature mode a partially-bad sample is instead REPAIRED in place
  /// (bad columns held at their last committed values), `stale_mask` gets
  /// the repaired columns' bits, and the return is false — the caller
  /// commits the repaired sample with a masked fold. A bad cycles column
  /// still quarantines the whole sample: it is the denominator every rate
  /// feature divides by, so no other column survives it. Only called while
  /// sensor_faults_ is armed.
  bool inject_and_validate(std::size_t slot, hpc::HpcSample& sample,
                           std::uint32_t& stale_mask);

  PlatformProfile platform_;
  util::Rng rng_;
  std::uint64_t epoch_ = 0;

  // --- SoA hot core: parallel arrays indexed by live slot ------------------
  std::vector<ProcessId> slot_pid_;   // slot -> pid; doubles as the live list
  std::vector<std::uint32_t> row_s_;  // slot -> cold row (hash-free hot path)
  std::vector<double> factor_s_;      // CFS weight factor (see weight_factor)
  std::vector<util::Rng> rng_s_;
  std::vector<ResourceShares> cgroup_s_;
  std::vector<ResourceShares> effective_s_;
  std::vector<hpc::HpcSample> last_sample_s_;
  std::vector<ml::WindowAccumulator> accum_s_;
  std::vector<double> last_progress_s_;
  std::vector<std::uint64_t> epochs_run_s_;
  std::vector<ExitReason> exit_s_;
  // Consecutive quarantined-telemetry epochs per slot (0 = healthy).
  // Maintained unconditionally (one store per slot per epoch) and carried
  // by snapshots, so a restored run coasts exactly like the original.
  std::vector<std::uint64_t> invalid_streak_s_;
  // Per-slot per-feature quarantine streaks (see feature_streaks()). Only
  // written while a fault plane is armed — all zeros otherwise — and
  // carried by snapshots like invalid_streak_s_.
  std::vector<std::array<std::uint32_t, hpc::kFeatureDim>> feature_streak_s_;

  // pid -> {slot, row} for every tracked process. O(tracked), not
  // O(total-pids-ever); iteration order is hash-layout-dependent and is
  // never allowed to reach observable output (snapshot capture walks the
  // cold rows instead).
  util::PidMap<PidRec> pid_map_;
  std::vector<ColdProc> cold_;            // row pool (indexed by PidRec::row)
  std::vector<std::uint32_t> free_rows_;  // reclaimed rows awaiting reuse
  // Pids allocated so far (pid = next_pid_ at spawn). Decoupled from
  // cold_.size() now that rows recycle.
  std::size_t next_pid_ = 0;

  // --- Feature plane (enabled on demand; see feature_plane()) --------------
  bool plane_enabled_ = false;
  bool plane_newest_ = false;  // maintain the newest-feature rows
  bool plane_stats_ = false;   // maintain the mean/stddev rows
  std::size_t plane_stride_ = 0;  // peak live slots padded to 8 doubles
  std::vector<double> plane_;  // plane_rows() x plane_stride_, feature-major:
                               // [newest rows][mean rows][stddev rows]
  std::vector<std::size_t> plane_count_;  // per-slot measurement count

  // --- Counter RNG / history window (see the enable_*/set_* docs) ----------
  bool counter_rng_ = false;
  std::size_t history_window_ = ml::Detector::kWholeWindow;

  // --- Open-epoch state -----------------------------------------------------
  double epoch_total_weight_ = 0.0;
  bool epoch_open_ = false;
  // Slots killed since the last compaction. Marked slots stay observable
  // (every accessor answers from the still-valid slot); the single
  // compaction pass runs at the next live_processes() or begin_epoch, so
  // k kills in one commit cost one pass, not k — and the pass touches only
  // the slots from the first dead one on, moving survivors a run at a time.
  bool retire_pending_ = false;
  // Set by step_slot when a workload completes; read serially at epoch
  // close. Relaxed is enough: the pool's join orders it before end_epoch.
  std::atomic<bool> epoch_any_exited_{false};

  // --- Deferred lifecycle state ---------------------------------------------
  // Pids spawned while the epoch was open, in spawn order; their cold rows
  // exist, their hot slots commit at the boundary. A pid whose pid-map
  // slot is no longer kPendingSlot by then was cancelled by kill().
  std::vector<ProcessId> pending_admit_;
  // Live pids killed while the epoch was open; marked at the boundary.
  std::vector<ProcessId> pending_kill_;
  // Retirement pool: history buffers donated by retired processes, handed
  // (capacity intact) to the next admissions. Only fed while
  // recycle_histories_ is set.
  std::vector<std::vector<hpc::HpcSample>> history_pool_;
  bool recycle_histories_ = false;
  // Capacity set by reserve(): the plane storage is reserved for the widest
  // plane at this count, so stride growth under churn never reallocates.
  std::size_t reserved_capacity_ = 0;
  // --- Retirement retention (see enable_retirement_retention) ---------------
  bool retention_enabled_ = false;
  std::uint64_t retention_epochs_ = 0;
  /// One pending reclamation: the pid and the epoch counter at its
  /// retirement. FIFO with a consumed-prefix cursor (epochs are
  /// non-decreasing because epoch_ is monotone, so drain stops at the
  /// first unexpired entry); the prefix is compacted in place, never
  /// reallocating in steady state.
  struct RetiredPid {
    ProcessId pid = 0;
    std::uint64_t epoch = 0;
  };
  /// Consumed-prefix length that triggers the in-place compaction above;
  /// reserve() sizes the queue for this slack so the compaction cycle
  /// never reallocates.
  static constexpr std::size_t kRetireCompactMin = 64;
  std::vector<RetiredPid> retire_queue_;
  std::size_t retire_head_ = 0;
  // Borrowed sensor-fault schedule; nullptr = injection and validation off.
  const fault::FaultPlane* sensor_faults_ = nullptr;
};

}  // namespace valkyrie::sim
