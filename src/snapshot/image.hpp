// Structured snapshot images: the decoded, in-memory form of an
// epoch-consistent engine snapshot.
//
// The byte format (snapshot.hpp encode/parse) exists ONLY as a projection
// of these structs — capture produces an image, encode serializes it,
// parse validates framing + CRC and decodes back into an image, restore
// commits an image into live objects. Keeping every field structured here
// (rather than decoding lazily) is what makes parse() registry-free:
// polymorphic objects (workloads, actuators) stay as {type tag, raw
// payload} until restore dispatches them, so snapshot_diff and the
// corruption tests can inspect snapshots without being able to (or needing
// to) construct the objects inside.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hpc/hpc.hpp"
#include "ml/window_accumulator.hpp"
#include "sim/resources.hpp"
#include "sim/scheduler.hpp"

namespace valkyrie::snapshot {

/// A serialized polymorphic object (workload or actuator): registry type
/// tag plus the opaque payload its snapshot_save produced. Empty type =
/// object absent (e.g. a reclaimed workload).
struct PolyImage {
  std::string type;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] bool present() const noexcept { return !type.empty(); }
};

/// One live hot-array slot of SimSystem, exactly as the SoA core holds it —
/// including slots already marked dead but not yet compacted (a mid-churn
/// capture at a boundary where kills are pending).
struct SlotImage {
  sim::ProcessId pid = 0;
  std::array<std::uint64_t, 4> rng{};  // per-slot workload RNG stream
  sim::ResourceShares cgroup{};
  sim::ResourceShares effective{};
  hpc::HpcSample last_sample{};
  ml::WindowAccumulator::State accum{};
  double last_progress = 0.0;
  std::uint64_t epochs_run = 0;
  std::uint8_t exit = 0;  // sim::ExitReason
  /// Consecutive epochs this slot's telemetry was quarantined (sensor
  /// fault / validation failure). Drives the engine's coast-vs-blind
  /// policy, so it must survive restore bit-exactly. v2 field.
  std::uint64_t invalid_streak = 0;
  /// Per-feature quarantine streaks (consecutive epochs each counter's
  /// column was quarantined — the per-column analogue of invalid_streak
  /// for the partial-plane degradation path). v3 field.
  std::array<std::uint32_t, hpc::kFeatureDim> feature_streak{};
};

/// One TRACKED pid's cold row: the workload object, the accumulated sample
/// history, and the retirement snapshot the pid-addressed observers answer
/// from after the slot is recycled. v5: rows are KEYED by pid and emitted
/// in ascending-pid order — sparse, so a churn run's reclaimed pids simply
/// have no row, and the image is O(tracked), not O(total-pids-ever).
struct ProcImage {
  /// The pid this row belongs to (v5; pre-v5 images were pid-dense and
  /// positional).
  sim::ProcessId pid = 0;
  /// Raw pid -> slot entry, sentinels included (0xffffffff = retired;
  /// the pending sentinel never appears — snapshots are taken at closed
  /// epoch boundaries where the admission queues are provably empty).
  std::uint32_t slot = 0;
  PolyImage workload;  // absent when reclaimed by the retirement pool
  /// The retained raw samples only (at most SystemImage::history_window).
  std::vector<hpc::HpcSample> history;
  // RetiredState, verbatim.
  sim::ResourceShares retired_cgroup{};
  sim::ResourceShares retired_effective{};
  hpc::HpcSample retired_last_sample{};
  ml::WindowAccumulator::State retired_accum{};
  double retired_last_progress = 0.0;
  std::uint64_t retired_epochs_run = 0;
  std::uint8_t retired_exit = 0;
};

/// Full SimSystem state at a closed epoch boundary, plus the numeric
/// platform/scheduler configuration used to verify the restore target was
/// built against the same code-level config (the configs themselves are
/// code, not data — they are never restored, only checked).
struct SystemImage {
  double epoch_ms = 100.0;
  double hpc_noise = 1.0;
  sim::SchedulerConfig scheduler{};

  std::array<std::uint64_t, 4> rng{};  // master RNG (spawn stream forks)
  std::uint64_t epoch = 0;
  /// Feature-plane arming flags are deliberately ABSENT: which plane
  /// sections a system maintains is run configuration (the batched engine
  /// arms its detector's declared sections at construction), and plane
  /// contents are derived — every live column is rewritten before the next
  /// batch kernel reads it. Restore sizes the target's own plane instead.
  bool retire_pending = false;  // dead-marked slots awaiting compaction
  bool recycle_histories = false;
  /// Counter-mode RNG armed (v4). The RNG word arrays above/below carry
  /// only state; the KIND must travel too, or a restored counter-mode run
  /// would replay through xoshiro scrambles and diverge.
  bool counter_rng = false;
  /// The history window (v6; v4/v5 carried a ring capacity with 0 =
  /// unbounded): how many newest raw samples each history retains, with
  /// ml::Detector::kWholeWindow meaning all of them and 0 none. Histories
  /// are always serialized linearized oldest-first, so this is the only
  /// ring state the image needs (restored heads start at 0).
  std::uint64_t history_window = static_cast<std::uint64_t>(-1);

  /// Total pids ever allocated (v5): the restore target's next spawn gets
  /// pid total_spawned. Decoupled from procs.size() now that reclaimed
  /// rows leave the image entirely.
  std::uint64_t total_spawned = 0;
  /// Retirement-retention policy state (v5): whether true cold-row
  /// reclamation is armed, its window, and the pending reclamation FIFO
  /// ({pid, retirement epoch}, non-decreasing epochs). Run STATE, not
  /// config: a restored run must reclaim the same pids at the same
  /// boundaries as the uninterrupted one for bit-replay to hold.
  bool retention_enabled = false;
  std::uint64_t retention_epochs = 0;
  std::vector<std::pair<sim::ProcessId, std::uint64_t>> retire_queue;

  std::vector<SlotImage> slots;  // hot arrays, slot order (ascending pid)
  /// Cold rows for exactly the tracked pids, ascending-pid (v5: sparse
  /// keyed form; see ProcImage::pid).
  std::vector<ProcImage> procs;
  /// One CFS weight factor per cold row, keyed alike (v5), so entry i's
  /// pid equals procs[i].pid: a live process's factor, or a retired
  /// process's final factor negated. Its magnitude lies in
  /// [min_share_fraction, 1], which restore checks.
  std::vector<sim::SchedFactorEntry> sched_entries;
};

/// One ValkyrieMonitor: scalar config (for validation + reconstruction),
/// the actuator object, and the threat/lifecycle metrics.
struct MonitorImage {
  std::uint64_t required_measurements = 0;
  bool episode_scoped = true;
  bool reset_metrics_on_normal = false;
  PolyImage actuator;
  double threat = 0.0;
  double penalty = 0.0;
  double compensation = 0.0;
  std::uint8_t threat_state = 0;  // core::ProcessState of the ThreatIndex
  std::uint64_t measurements = 0;
  std::uint8_t state = 0;  // core::ProcessState of the monitor
};

/// One live engine attachment (detach tombstones are skipped at capture —
/// no output reads them, so a restored table holds the live attachments in
/// attach order, whenever the clean run prunes its own).
struct AttachmentImage {
  sim::ProcessId pid = 0;
  MonitorImage monitor;
  bool has_terminal = false;
  std::uint64_t terminal_hash = 0;  // terminal detector fingerprint
  std::uint64_t stream_malicious = 0;
  std::uint64_t stream_counted = 0;
  /// Measurements a stream's catch-up skipped because the system no
  /// longer retained them (v6; see ml::StreamingInference).
  std::uint64_t stream_skipped = 0;
  std::uint64_t terminal_malicious = 0;
  std::uint64_t terminal_counted = 0;
  std::uint64_t terminal_skipped = 0;  // v6
  /// The OBSERVABLE action view, canonicalized at capture: the raw
  /// (last_action, last_action_step) pair also records idle kNone visits,
  /// which a restored engine cannot reproduce, so capture stores what
  /// last_action() answers — (kNone, 0) unless a real action landed this
  /// very step. This keeps an immediate re-capture of a restored world
  /// byte-identical to the uninterrupted run's.
  std::uint8_t last_action = 0;  // ValkyrieMonitor::Action
  std::uint64_t last_action_step = 0;
};

/// ValkyrieEngine state. The detector itself is code — only its
/// compatibility fingerprint is recorded; restore refuses an engine whose
/// detector hashes differently. The worker count is run configuration, not
/// state (bit-identity holds across all of them), so the restored engine
/// keeps its own.
/// One pending actuator-command retry (v2). The engine's retry table is
/// real state — a restored run must resume the same backoff schedule — and
/// is kept pid-sorted so snapshots of bit-identical runs are byte-identical
/// regardless of the shard layout that produced the failures.
struct RetryImage {
  sim::ProcessId pid = 0;
  std::uint8_t kind = 0;      // core::ActuatorCommand::Kind
  double delta = 0.0;         // accumulated throttle delta (kApply only)
  std::uint32_t failures = 0; // consecutive failed attempts
  std::uint64_t next_epoch = 0;  // backoff: earliest epoch to retry at
};

struct EngineImage {
  std::uint64_t detector_hash = 0;
  std::uint64_t step_tag = 0;
  std::vector<AttachmentImage> attachments;
  std::vector<RetryImage> retries;  // pid-sorted, v2
};

/// ScenarioDriver state: RNG, stats, scheduled departures, campaign
/// progress and census bookkeeping. The script is code-adjacent (it holds
/// monitor configs with assessment functions), so like the detector it is
/// fingerprinted, not serialized — the restore constructor takes the script
/// again and verifies the fingerprint.
struct DriverImage {
  std::uint64_t script_fingerprint = 0;
  std::array<std::uint64_t, 4> rng{};
  // Stats, verbatim.
  std::uint64_t spawned = 0;
  std::uint64_t attack_spawned = 0;
  std::uint64_t driver_kills = 0;
  std::uint64_t completed = 0;
  std::uint64_t policy_kills = 0;
  std::uint64_t rejected = 0;
  std::uint64_t peak_live = 0;
  std::uint64_t epochs = 0;
  double live_epoch_sum = 0.0;
  /// The departure min-heap's backing array, verbatim (heap order is a
  /// deterministic function of the push sequence, so restoring the array
  /// bit-for-bit reproduces every future pop).
  std::vector<std::pair<std::uint64_t, sim::ProcessId>> departures;
  std::vector<std::uint64_t> campaign_progress;
  std::uint64_t benign_palette_cursor = 0;
  std::vector<sim::ProcessId> prev_live;
  std::uint64_t live = 0;
};

/// A complete decoded snapshot.
struct SnapshotImage {
  std::uint32_t version = 6;
  SystemImage system;
  EngineImage engine;
  bool has_driver = false;
  /// Meaningful only while has_driver is set: a capture or parse without a
  /// driver section into a reused image leaves it as it was.
  DriverImage driver;
};

}  // namespace valkyrie::snapshot
