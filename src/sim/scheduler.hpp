// Completely-Fair-Scheduler-style weight model (paper §VI-A).
//
// Linux CFS gives each runnable task a timeslice proportional to its weight:
//   timeslice_t = targeted_latency * w_t / sum(w)          (Eq. 7)
// with 40 discrete weight levels separated by a constant multiplicative step.
// Valkyrie's scheduler actuator moves a flagged process down (or back up)
// these levels as its threat index changes (Eq. 8, step gamma = 0.1 on the
// evaluation platforms).
//
// A process's weight is one factor relative to the default weight, kept by
// SimSystem with the rest of the process's state (its live slot, or its
// cold row once retired). This header holds the configuration and the two
// pure functions the simulator applies to that factor: the Eq. 8 step and
// the CPU share relative to default weight. A constant "background" weight
// stands in for the rest of the system, so a single process's relative
// share behaves like a lightly loaded interactive machine.
#pragma once

#include <cstdint>

namespace valkyrie::sim {

using ProcessId = std::uint32_t;

struct SchedulerConfig {
  /// CFS targeted latency: the window within which every runnable process
  /// should run once. Like weight_levels and default_level, it is recorded
  /// in snapshots and checked on restore; no simulation path reads it.
  double targeted_latency_ms = 24.0;
  /// Multiplicative weight step between adjacent levels (paper gamma), in
  /// (0, 1).
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
  /// Must be strictly positive — SimSystem's constructor throws otherwise
  /// (a zero floor would stall a process outright).
  double min_share_fraction = 0.01;
};

/// One keyed weight factor of a snapshot image. Positive = a live
/// process's factor; negative = a retired process's final factor, negated.
/// Zero never appears: every factor lies in [min_share_fraction, 1].
struct SchedFactorEntry {
  ProcessId pid = 0;
  double factor = 0.0;
};

/// Eq. 8: the factor after a threat-index change of `delta_threat`
/// (positive = demote, negative = promote), s * (1 - gamma * delta),
/// clamped to [min_share_fraction, 1].
[[nodiscard]] double threat_step_factor(double factor, double delta_threat,
                                        const SchedulerConfig& config);

/// The CPU share a process with weight `factor` receives when the live
/// weights plus background sum to `total`, as a fraction of the share it
/// would get at default weight (the others held at theirs): an untouched
/// process reads exactly 1.0.
[[nodiscard]] double share_from_factor(double factor, double total);

}  // namespace valkyrie::sim
