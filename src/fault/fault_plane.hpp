// Seeded, deterministic runtime fault plane (the chaos layer).
//
// core::SupervisedEngine's injected crashes kill the whole world and
// prove recovery; this plane models the *partial* failures a production
// monitor actually lives with — lossy or lying HPC sensors, a detector
// that throws or emits garbage bits, an actuator whose control channel
// drops commands — and does it deterministically: every fault decision
// is a pure splitmix64 hash over a stable identity (seed x epoch x pid,
// or seed x feature bits), never a stateful RNG draw. That is what keeps chaos runs
// bit-reproducible across worker counts: shards may consult the plane in
// any order, any number of times, and always get the same answer. Fault
// schedules therefore "commit" at epoch boundaries by construction — the
// decision for (epoch E, pid P) is fixed the moment the seed is chosen.
//
// The plane is code, not data: like detectors and scenario scripts it is
// never serialized into snapshots — a restored run re-arms the same plane
// and replays the same faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "hpc/hpc.hpp"
#include "ml/detector.hpp"

namespace valkyrie::fault {

/// What the sensor path did to this (epoch, pid)'s HPC sample.
enum class SensorFaultKind : std::uint8_t {
  kNone,
  kDropout,    // the sample is lost entirely
  kStuck,      // the counters repeat the previous epoch's values bit-exactly
  kNaN,        // non-finite counter values
  kSaturated,  // counters pinned at the transport's saturation value
};

struct SensorFaultConfig {
  double dropout_rate = 0.0;
  double stuck_rate = 0.0;
  double nan_rate = 0.0;
  double saturate_rate = 0.0;
  /// Per-feature degradation: a non-dropout sensor fault corrupts each HPC
  /// counter independently with this probability (at least one counter is
  /// always hit) instead of the whole counter bank. 1.0 (default) keeps the
  /// whole-sample faults of PR 7; anything below arms the partial-plane
  /// path — validation then quarantines only the offending feature columns
  /// and the window fold keeps the healthy ones.
  double feature_fraction = 1.0;

  [[nodiscard]] bool per_feature() const noexcept {
    return feature_fraction < 1.0;
  }
};

struct DetectorFaultConfig {
  double throw_rate = 0.0;    // infer / measurement_vote throws
  double garbage_rate = 0.0;  // infer returns out-of-range enum bits
};

struct ActuatorFaultConfig {
  /// Per-(epoch, pid) transient command failure: the apply/reset/kill
  /// issued at that boundary is dropped; a retry at a later epoch draws
  /// fresh.
  double transient_rate = 0.0;
  /// Per-pid permanent failure of the *throttle* channel (apply/reset
  /// never land for that pid). Kills use the process-termination channel
  /// and stay subject only to transient faults — that is what gives the
  /// engine's escalation ladder a way out.
  double permanent_rate = 0.0;
};

/// Correlated fault domains: processes map deterministically onto
/// nodes/racks (`node_width` consecutive pids per node, nodes striped over
/// `domain_count` domains), and each domain runs a Gilbert-Elliott-style
/// burst schedule — alternating healthy and dark dwells whose lengths are
/// hash-drawn renewal intervals. A dark dwell takes out the whole domain's
/// sensor plane (every co-located sample reads as a dropout) and/or its
/// actuator channel (every command at that boundary is dropped) for k
/// consecutive epochs, modelling a node losing its PMU or its control
/// path rather than iid per-process noise.
///
/// The schedule is a pure function of (seed, domain, epoch): membership in
/// a burst is answered by walking the domain's renewal intervals from
/// epoch 0, each interval length drawn from a hash of (seed, domain,
/// interval index). No state, no draws consumed — shards may ask in any
/// order and chaos runs stay bit-reproducible across worker counts exactly
/// like the iid draws.
struct DomainFaultConfig {
  /// Number of fault domains; 0 disables the burst layer entirely.
  std::size_t domain_count = 0;
  /// Consecutive pids co-located on one node (node = pid / node_width);
  /// nodes stripe across domains (domain = node % domain_count).
  std::size_t node_width = 8;
  /// Long-run fraction of epochs a domain's *sensor plane* spends dark.
  double sensor_outage_rate = 0.0;
  /// Long-run fraction of epochs a domain's *actuator channel* spends dark.
  double actuator_outage_rate = 0.0;
  /// Mean dark-dwell length in epochs (the burst length k); healthy dwells
  /// are sized so the long-run dark fraction matches the outage rate.
  double mean_outage_epochs = 4.0;
};

/// Counter value the saturated-sensor fault pins every event at, and the
/// threshold above which the validator rejects a sample as saturated. Real
/// HPC counts in this simulation top out around 1e9; anything at 1e15+ is
/// transport garbage.
inline constexpr double kSaturationValue = 1e18;
inline constexpr double kSaturationThreshold = 1e15;

class FaultPlane {
 public:
  explicit FaultPlane(std::uint64_t seed) : seed_(seed) {}

  SensorFaultConfig sensor;
  DetectorFaultConfig detector;
  ActuatorFaultConfig actuator;
  DomainFaultConfig domains;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Validates every configured rate (finite, in [0, 1]; the four sensor
  /// kind rates must also sum to at most 1, feature_fraction must lie in
  /// (0, 1], mean_outage_epochs must be >= 1). Throws std::invalid_argument
  /// naming the offending field. Called by the engine/system at arm time so
  /// a degenerate rate (NaN, 1e9, -0.2) fails loudly instead of silently
  /// producing a hash threshold that never or always fires.
  void validate() const;

  /// True when any rate is non-zero (armed-but-idle planes keep the
  /// fault-free paths byte-for-byte on their fast paths).
  [[nodiscard]] bool burst_sensor() const noexcept {
    return domains.domain_count > 0 && domains.sensor_outage_rate > 0.0;
  }
  [[nodiscard]] bool burst_actuator() const noexcept {
    return domains.domain_count > 0 && domains.actuator_outage_rate > 0.0;
  }
  [[nodiscard]] bool any_sensor() const noexcept {
    return sensor.dropout_rate > 0.0 || sensor.stuck_rate > 0.0 ||
           sensor.nan_rate > 0.0 || sensor.saturate_rate > 0.0 ||
           burst_sensor();
  }
  [[nodiscard]] bool any_actuator() const noexcept {
    return actuator.transient_rate > 0.0 || actuator.permanent_rate > 0.0 ||
           burst_actuator();
  }

  /// The fault domain a pid belongs to. Pre: domain_count > 0.
  [[nodiscard]] std::size_t domain_of(std::uint32_t pid) const noexcept {
    const std::size_t width = domains.node_width > 0 ? domains.node_width : 1;
    return (static_cast<std::size_t>(pid) / width) % domains.domain_count;
  }

  /// True when the pid's domain is inside a sensor-plane outage burst at
  /// `epoch` — sensor_fault() then reports kDropout for every co-located
  /// process regardless of the iid schedule.
  [[nodiscard]] bool sensor_outage(std::uint64_t epoch,
                                   std::uint32_t pid) const noexcept;

  /// True when the pid's domain is inside an actuator-channel outage burst
  /// at `epoch` — actuator_fails() then reports true for the whole domain.
  [[nodiscard]] bool actuator_outage(std::uint64_t epoch,
                                     std::uint32_t pid) const noexcept;

  /// One uniform draw keyed on (seed, epoch, pid), partitioned across the
  /// four sensor fault kinds. A domain sensor outage dominates the iid
  /// schedule: inside a burst every co-located sample is a dropout (the
  /// node's whole PMU plane is gone, not one counter).
  [[nodiscard]] SensorFaultKind sensor_fault(std::uint64_t epoch,
                                             std::uint32_t pid) const noexcept;

  /// Which feature columns a per-feature sensor fault hits for
  /// (epoch, pid): bit f set = counter f corrupted. Each feature draws
  /// independently at sensor.feature_fraction from its own hash; a draw
  /// that selects nothing falls back to one hash-chosen column, so a
  /// scheduled fault never degenerates into a no-op. Only meaningful for
  /// non-dropout kinds with sensor.per_feature() armed.
  [[nodiscard]] std::uint32_t sensor_feature_mask(
      std::uint64_t epoch, std::uint32_t pid) const noexcept;

  /// Detector faults key on the *feature bits* being scored, so the
  /// decision is identical wherever the score happens — the per-slot
  /// scalar path and the batched plane sweep present the same bits for the
  /// same measurement. One draw, partitioned: throw first, then garbage.
  [[nodiscard]] bool detector_throws(
      std::span<const double> features) const noexcept;
  [[nodiscard]] bool detector_garbage(
      std::span<const double> features) const noexcept;

  [[nodiscard]] bool actuator_fails(std::uint64_t epoch,
                                    std::uint32_t pid) const noexcept;
  [[nodiscard]] bool actuator_dead(std::uint32_t pid) const noexcept;

 private:
  std::uint64_t seed_;
};

/// Thrown by FaultyDetector on an injected detector fault. A distinct type
/// so tests can tell an injected fault from a genuine detector bug; the
/// engine's containment is type-agnostic (catch (...)).
class DetectorFault : public std::runtime_error {
 public:
  DetectorFault() : std::runtime_error("injected detector fault") {}
};

/// Wraps any detector with the plane's detector-fault schedule: scoring a
/// faulted measurement throws DetectorFault (or, for whole-window
/// inference, may instead return garbage enum bits the engine must
/// sanitize). Batch kernels throw when ANY column in the batch is faulted
/// — the engine then falls back to the per-slot scalar path, which
/// re-applies the per-column decisions deterministically, so faulted runs
/// stay bit-identical for any shard layout. Name and state hash forward to
/// the wrapped detector: snapshots of faulted runs interoperate with the
/// fault-free engine.
class FaultyDetector final : public ml::Detector {
 public:
  FaultyDetector(const ml::Detector& inner, const FaultPlane& plane)
      : inner_(inner), plane_(plane) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t state_hash() const override {
    return inner_.state_hash();
  }
  [[nodiscard]] std::optional<double> vote_fraction() const override {
    return inner_.vote_fraction();
  }
  /// The batch fault checks key on the newest-measurement rows, which a
  /// stats-only plane does not carry — so a wrapped stats-only detector is
  /// served per slot instead of batched.
  [[nodiscard]] PlaneSections plane_sections() const override {
    const PlaneSections inner = inner_.plane_sections();
    return inner == PlaneSections::kStatsOnly ? PlaneSections::kFull : inner;
  }
  [[nodiscard]] std::size_t raw_window() const override {
    return inner_.raw_window();
  }

  [[nodiscard]] ml::Inference infer(
      std::span<const hpc::HpcSample> window) const override;
  [[nodiscard]] ml::Inference infer(
      const ml::WindowSummary& summary) const override;
  [[nodiscard]] bool measurement_vote(
      std::span<const double> features) const override;
  void measurement_votes(const ml::FeatureMatrixView& batch,
                         std::span<std::uint8_t> out) const override;
  void infer_batch(const ml::SummaryMatrixView& batch,
                   std::span<ml::Inference> out) const override;

 private:
  const ml::Detector& inner_;
  const FaultPlane& plane_;
};

}  // namespace valkyrie::fault
