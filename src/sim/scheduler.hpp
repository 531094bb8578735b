// Completely-Fair-Scheduler-style weighted scheduler model (paper §VI-A).
//
// Linux CFS gives each runnable task a timeslice proportional to its weight:
//   timeslice_t = targeted_latency * w_t / sum(w)          (Eq. 7)
// with 40 discrete weight levels separated by a constant multiplicative step.
// Valkyrie's scheduler actuator moves a flagged process down (or back up)
// these levels as its threat index changes (Eq. 8, step gamma = 0.1 on the
// evaluation platforms).
//
// The model keeps real weights per process plus a constant "background"
// weight standing in for the rest of the system, so a single process's
// relative share behaves like a lightly loaded interactive machine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/pid_map.hpp"

namespace valkyrie::sim {

using ProcessId = std::uint32_t;

struct SchedulerConfig {
  /// CFS targeted latency: the window within which every runnable process
  /// should run once.
  double targeted_latency_ms = 24.0;
  /// Multiplicative weight step between adjacent levels (paper gamma).
  double gamma = 0.1;
  /// Number of discrete weight levels (Linux nice range is 40 levels).
  int weight_levels = 40;
  /// Default level for a fresh process (middle of the range).
  int default_level = 20;
  /// Weight of everything else running on the machine, in units of one
  /// default-level process. 9 background units means an unthrottled process
  /// owns ~10% of the machine, i.e. a lightly loaded desktop.
  double background_weight_units = 9.0;
  /// Fraction of its default share below which a process cannot be pushed
  /// (the paper's s_MIN; user-configurable slowdown cap lives on top).
  /// Must be strictly positive — CfsScheduler's constructor throws
  /// otherwise (a zero floor would stall a process outright).
  double min_share_fraction = 0.01;
};

/// One keyed row of the factor table, the snapshot-capture form. The factor
/// keeps the table's sign encoding: positive = runnable, negative = parked
/// retired weight (magnitude = last factor held). Zero never appears — a
/// pid with no weight simply has no entry.
struct SchedFactorEntry {
  ProcessId pid = 0;
  double factor = 0.0;
};

class CfsScheduler {
 public:
  explicit CfsScheduler(const SchedulerConfig& config = {});

  /// Pre-sizes the weight table for `max_pids` simultaneously tracked
  /// processes (runnable + parked), so admissions and retirements under
  /// steady-state churn never reallocate it. Unlike the dense-table era
  /// this bounds the PEAK TRACKED population, not the largest pid value —
  /// pids can grow without bound while the table stays this size.
  void reserve(std::size_t max_pids);

  void add_process(ProcessId pid);
  void remove_process(ProcessId pid);

  /// Batch admission/retirement. SimSystem retires through the batch form
  /// (one compaction pass removes the epoch's dead pids together); the
  /// single-pid calls above are wrappers over these.
  void add_processes(std::span<const ProcessId> pids);
  void remove_processes(std::span<const ProcessId> pids);

  /// Drops a PARKED (removed) pid's weight from the table entirely — the
  /// retention window closing on a retired process. No-op if the pid is
  /// unknown; throws std::logic_error if the pid is still runnable (a
  /// caller must remove before it forgets). After this, weight_factor(pid)
  /// throws: the retired-observability contract ends with the window.
  void forget_process(ProcessId pid);

  [[nodiscard]] bool has_process(ProcessId pid) const;

  /// Relative weight factor of the process vs. its default weight, in
  /// (0, 1]: 1 = untouched, lower = demoted by the actuator. For a removed
  /// (retired) process this keeps answering with the last weight it held —
  /// the same retired-observability contract SimSystem's pid-addressed
  /// accessors keep — until forget_process reclaims the entry.
  [[nodiscard]] double weight_factor(ProcessId pid) const;

  /// Applies Eq. 8 with the configured gamma for a threat-index change of
  /// `delta_threat` (positive = demote, negative = promote). The factor is
  /// clamped to [min_share_fraction, 1]. A no-op for removed processes
  /// (a late command against an already-retired pid must not resurrect
  /// its weight).
  void apply_threat_delta(ProcessId pid, double delta_threat);

  /// Restores the default weight (Areset on the CPU resource). No-op for
  /// removed processes, like apply_threat_delta.
  void reset_weight(ProcessId pid);

  /// The CPU share this process receives, as a fraction of the share an
  /// un-demoted process would get: weight / (weight + others + background),
  /// normalised so an untouched process reads 1.0.
  [[nodiscard]] double normalized_share(ProcessId pid) const;

  /// O(1) variant for callers that computed total_weight() once for the
  /// epoch (the engine's serial share phase): summing all weights per
  /// process would make one epoch O(P^2). Bit-identical to the overload
  /// above as long as `total` is this scheduler's current total_weight().
  [[nodiscard]] double normalized_share(ProcessId pid, double total) const;

  /// The share math of normalized_share from an already-fetched raw factor
  /// (sign ignored) — the hash-free hot path: SimSystem batch-gathers the
  /// live factors once per epoch (gather_factors) and computes each slot's
  /// share from the cached value. Bit-identical to
  /// normalized_share(pid, total) for the factor stored under `pid`.
  [[nodiscard]] static double share_from_factor(double raw_factor,
                                                double total);

  /// Sum of every runnable process's weight factor plus the background
  /// weight. Gathers and sums in ascending-pid order (bit-deterministic
  /// regardless of hash-table layout); O(tracked) with an allocation —
  /// epoch loops use the span overload or gather_factors instead.
  [[nodiscard]] double total_weight() const;

  /// Churn-proof variant: sums the factors of exactly the given live pids
  /// (plus background), in span order. Bit-identical to total_weight()
  /// whenever `live` is every runnable pid in ascending order — which
  /// SimSystem's slot list guarantees (stable compaction keeps slot order
  /// ascending-pid). Uses the batched prefetching lookup.
  [[nodiscard]] double total_weight(std::span<const ProcessId> live) const;

  /// Batched raw-factor gather: out[i] = the signed stored factor for
  /// pids[i], or 0.0 when the pid has no entry. One prefetching pass; the
  /// per-epoch share loop runs off this cache instead of hashing per slot.
  void gather_factors(std::span<const ProcessId> pids,
                      std::span<double> out) const;

  /// Absolute share of machine CPU (Eq. 7's s_t), before normalisation.
  [[nodiscard]] double absolute_share(ProcessId pid) const;

  /// CFS timeslice for the process within one targeted-latency window.
  [[nodiscard]] double timeslice_ms(ProcessId pid) const;

  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }

  /// The factor table as keyed entries sorted by ascending pid
  /// (hash-layout-independent, so sums over it are identical across
  /// capacity histories). Sign encoding preserved. A snapshot capture,
  /// which already holds the tracked pids in order, gathers them with
  /// gather_factors instead of sorting the table again.
  [[nodiscard]] std::vector<SchedFactorEntry> factor_entries() const;

  /// Replaces the whole factor table from snapshot entries. The encoding
  /// (positive / negative) is restored verbatim, so parked retired weights
  /// stay observable exactly as at capture time.
  void restore_factor_entries(std::span<const SchedFactorEntry> entries);

  /// Entry count (runnable + parked), for the bounded-capacity tests.
  [[nodiscard]] std::size_t table_size() const noexcept {
    return factor_.size();
  }
  /// Hash-table bucket count — the leak regression tests pin that this
  /// stays bounded under churn once retirement reclamation runs.
  [[nodiscard]] std::size_t table_capacity() const noexcept {
    return factor_.capacity();
  }

 private:
  SchedulerConfig config_;
  // pid -> weight factor, robin-hood hashed (util::PidMap). Two states
  // share the one value: a positive value is a runnable process's factor; a
  // NEGATIVE value parks a removed (retired) process — the magnitude is the
  // last factor it held, kept readable for post-mortem observers while
  // total_weight() no longer counts it. A pid with no entry was never
  // added, or had its parked weight reclaimed by forget_process. The sign
  // encoding is airtight because a runnable factor is clamped to
  // [min_share_fraction, 1] with min_share_fraction > 0, so a negative
  // never collides with a live weight. Unlike the dense pid-indexed table
  // this used to be, memory is O(tracked processes), not O(largest pid):
  // under churn with reclamation the table stays flat forever.
  util::PidMap<double> factor_;
};

}  // namespace valkyrie::sim
