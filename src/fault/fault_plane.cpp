#include "fault/fault_plane.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>

#include "util/rng.hpp"
#include "util/serial.hpp"

namespace valkyrie::fault {

namespace {

/// Domain-separation tags: each fault family hashes in its own stream so
/// e.g. a sensor decision for (epoch, pid) never correlates with the
/// actuator decision for the same pair.
constexpr std::uint64_t kSensorTag = 0x53454e534f524654ull;    // "SENSORFT"
constexpr std::uint64_t kDetectorTag = 0x4445544543544654ull;  // "DETECTFT"
constexpr std::uint64_t kActuatorTag = 0x4143545541544654ull;  // "ACTUATFT"
constexpr std::uint64_t kPermanentTag = 0x5045524d41544654ull; // "PERMATFT"
constexpr std::uint64_t kFeatureTag = 0x4645415455524654ull;   // "FEATURFT"
constexpr std::uint64_t kSensorBurstTag = 0x53454e4255525354ull;   // "SENBURST"
constexpr std::uint64_t kActuatorBurstTag = 0x4143544255525354ull; // "ACTBURST"

[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ull);
  return util::splitmix64(state);
}

/// Uniform double in [0, 1) from a hashed key — the same 53-bit ladder
/// util::Rng::uniform uses, minus the stream state.
[[nodiscard]] double unit(std::uint64_t key) noexcept {
  std::uint64_t state = key;
  const std::uint64_t z = util::splitmix64(state);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

[[nodiscard]] std::uint64_t feature_key(
    std::span<const double> features) noexcept {
  return util::fnv1a(features);
}

/// One hash-drawn renewal interval (>= 1 epoch) with the given mean: the
/// inverse-CDF exponential draw, floored and shifted so a dwell always
/// advances the walk. Pure in (key, mean).
[[nodiscard]] std::uint64_t dwell(std::uint64_t key, double mean) noexcept {
  const double u = unit(key);
  // -log1p(-u) is Exp(1); u < 1 guarantees a finite draw. Clamp before
  // the cast: a vanishing outage rate makes the derived healthy mean
  // astronomically large, and double->uint64 conversion of a value >= 2^64
  // is UB. 2^62 epochs is beyond any reachable run length, so the clamp
  // never alters an observable schedule.
  const double len = std::min(-mean * std::log1p(-u), 0x1.0p62);
  return 1 + static_cast<std::uint64_t>(len);
}

/// Gilbert-Elliott membership as a pure function: walk the domain's
/// alternating healthy/dark dwells from epoch 0 until the interval holding
/// `epoch` is found. Every dwell length is a hash of (seed-stream, domain,
/// interval index), so the schedule is identical no matter who asks, when,
/// or how many times — the property that keeps burst chaos bit-reproducible
/// across worker counts.
/// Resume point for one domain's renewal walk: interval pair `i` starts at
/// epoch `t`. Purely an accelerator — every dwell is a pure hash of
/// (domain_key, interval index), so resuming mid-chain yields bit-identical
/// answers to walking from 0.
struct BurstCursor {
  std::uint64_t key = 0;  // cursor_key this cursor belongs to
  std::uint64_t i = 0;    // next interval-pair index
  std::uint64_t t = 0;    // epoch where pair i begins (<= queried epoch)
};

[[nodiscard]] bool in_burst(std::uint64_t stream, std::uint64_t domain,
                            std::uint64_t epoch, double rate,
                            double mean_dark) noexcept {
  // Healthy dwells sized so the long-run dark fraction matches `rate`:
  // rate = mean_dark / (mean_dark + mean_healthy).
  const double mean_healthy = mean_dark * (1.0 - rate) / rate;
  const std::uint64_t domain_key = mix(stream, domain);
  // Epochs are queried near-monotonically (per epoch, per pid), so walking
  // the chain from epoch 0 on every query would cost O(epoch / mean cycle)
  // per call — quadratic over a run. A thread-local direct-mapped cursor
  // cache resumes each walk where the last query left it; thread-local
  // keeps the plane lock-free under sharded stepping, and a cold, evicted
  // or backward cursor just falls back to the full walk. The cursor
  // identity must cover the dwell PARAMETERS too, not just the domain:
  // two planes sharing a seed but with different burst severities walk
  // different chains from the same domain_key.
  const std::uint64_t cursor_key =
      mix(mix(domain_key, std::bit_cast<std::uint64_t>(rate)),
          std::bit_cast<std::uint64_t>(mean_dark));
  thread_local std::array<BurstCursor, 64> cursors;
  BurstCursor& cur = cursors[cursor_key & 63];
  if (cur.key != cursor_key || cur.t > epoch) {
    cur = BurstCursor{cursor_key, 0, 0};
  }
  std::uint64_t t = cur.t;
  for (std::uint64_t i = cur.i;; ++i) {
    cur.i = i;  // pair i starts at t <= epoch: a valid resume point
    cur.t = t;
    t += dwell(mix(domain_key, 2 * i), mean_healthy);
    if (epoch < t) return false;  // inside the healthy dwell
    t += dwell(mix(domain_key, 2 * i + 1), mean_dark);
    if (epoch < t) return true;  // inside the dark dwell
  }
}

}  // namespace

bool FaultPlane::sensor_outage(std::uint64_t epoch,
                               std::uint32_t pid) const noexcept {
  if (!burst_sensor()) return false;
  return in_burst(mix(seed_, kSensorBurstTag), domain_of(pid), epoch,
                  domains.sensor_outage_rate, domains.mean_outage_epochs);
}

bool FaultPlane::actuator_outage(std::uint64_t epoch,
                                 std::uint32_t pid) const noexcept {
  if (!burst_actuator()) return false;
  return in_burst(mix(seed_, kActuatorBurstTag), domain_of(pid), epoch,
                  domains.actuator_outage_rate, domains.mean_outage_epochs);
}

SensorFaultKind FaultPlane::sensor_fault(std::uint64_t epoch,
                                         std::uint32_t pid) const noexcept {
  if (!any_sensor()) return SensorFaultKind::kNone;
  // A domain burst is the node's whole sensor plane going dark: every
  // co-located sample is lost outright for the burst's k epochs,
  // regardless of what the iid schedule would have said.
  if (sensor_outage(epoch, pid)) return SensorFaultKind::kDropout;
  const double u = unit(mix(mix(seed_, kSensorTag), mix(epoch, pid)));
  double edge = sensor.dropout_rate;
  if (u < edge) return SensorFaultKind::kDropout;
  edge += sensor.stuck_rate;
  if (u < edge) return SensorFaultKind::kStuck;
  edge += sensor.nan_rate;
  if (u < edge) return SensorFaultKind::kNaN;
  edge += sensor.saturate_rate;
  if (u < edge) return SensorFaultKind::kSaturated;
  return SensorFaultKind::kNone;
}

std::uint32_t FaultPlane::sensor_feature_mask(
    std::uint64_t epoch, std::uint32_t pid) const noexcept {
  const std::uint64_t key = mix(mix(seed_, kFeatureTag), mix(epoch, pid));
  std::uint32_t mask = 0;
  for (std::uint32_t f = 0; f < hpc::kNumEvents; ++f) {
    if (unit(mix(key, f)) < sensor.feature_fraction) mask |= 1u << f;
  }
  if (mask == 0) {
    // A scheduled fault that selected no column would silently vanish;
    // pin one hash-chosen counter instead.
    mask = 1u << (key % hpc::kNumEvents);
  }
  return mask;
}

namespace {

void check_rate(double value, const char* field) {
  if (!std::isfinite(value) || value < 0.0 || value > 1.0) {
    throw std::invalid_argument(std::string("FaultPlane: ") + field +
                                " must be a finite rate in [0, 1], got " +
                                std::to_string(value));
  }
}

}  // namespace

void FaultPlane::validate() const {
  check_rate(sensor.dropout_rate, "sensor.dropout_rate");
  check_rate(sensor.stuck_rate, "sensor.stuck_rate");
  check_rate(sensor.nan_rate, "sensor.nan_rate");
  check_rate(sensor.saturate_rate, "sensor.saturate_rate");
  const double sensor_sum = sensor.dropout_rate + sensor.stuck_rate +
                            sensor.nan_rate + sensor.saturate_rate;
  if (sensor_sum > 1.0) {
    throw std::invalid_argument(
        "FaultPlane: sensor kind rates sum to " + std::to_string(sensor_sum) +
        " > 1 (the partition of one uniform draw would overlap)");
  }
  if (!std::isfinite(sensor.feature_fraction) ||
      sensor.feature_fraction <= 0.0 || sensor.feature_fraction > 1.0) {
    throw std::invalid_argument(
        "FaultPlane: sensor.feature_fraction must be a finite fraction in "
        "(0, 1], got " +
        std::to_string(sensor.feature_fraction));
  }
  check_rate(detector.throw_rate, "detector.throw_rate");
  check_rate(detector.garbage_rate, "detector.garbage_rate");
  if (detector.throw_rate + detector.garbage_rate > 1.0) {
    throw std::invalid_argument(
        "FaultPlane: detector throw_rate + garbage_rate exceed 1");
  }
  check_rate(actuator.transient_rate, "actuator.transient_rate");
  check_rate(actuator.permanent_rate, "actuator.permanent_rate");
  // Outage rates must stay strictly below 1: the healthy-dwell mean is
  // mean_dark * (1 - rate) / rate, and a rate of 1 (never healthy) would
  // collapse the renewal walk.
  check_rate(domains.sensor_outage_rate, "domains.sensor_outage_rate");
  check_rate(domains.actuator_outage_rate, "domains.actuator_outage_rate");
  if (domains.sensor_outage_rate >= 1.0 ||
      domains.actuator_outage_rate >= 1.0) {
    throw std::invalid_argument(
        "FaultPlane: domain outage rates must be < 1 (a domain must "
        "eventually come back)");
  }
  if ((burst_sensor() || burst_actuator()) &&
      (!std::isfinite(domains.mean_outage_epochs) ||
       domains.mean_outage_epochs < 1.0)) {
    throw std::invalid_argument(
        "FaultPlane: domains.mean_outage_epochs must be finite and >= 1, "
        "got " +
        std::to_string(domains.mean_outage_epochs));
  }
}

bool FaultPlane::detector_throws(
    std::span<const double> features) const noexcept {
  if (detector.throw_rate <= 0.0) return false;
  const double u = unit(mix(mix(seed_, kDetectorTag), feature_key(features)));
  return u < detector.throw_rate;
}

bool FaultPlane::detector_garbage(
    std::span<const double> features) const noexcept {
  if (detector.garbage_rate <= 0.0) return false;
  const double u = unit(mix(mix(seed_, kDetectorTag), feature_key(features)));
  return u >= detector.throw_rate &&
         u < detector.throw_rate + detector.garbage_rate;
}

bool FaultPlane::actuator_fails(std::uint64_t epoch,
                                std::uint32_t pid) const noexcept {
  // A domain burst drops the whole control channel: every command issued
  // at this boundary for a co-located pid is lost, independent of the iid
  // transient schedule.
  if (actuator_outage(epoch, pid)) return true;
  if (actuator.transient_rate <= 0.0) return false;
  return unit(mix(mix(seed_, kActuatorTag), mix(epoch, pid))) <
         actuator.transient_rate;
}

bool FaultPlane::actuator_dead(std::uint32_t pid) const noexcept {
  if (actuator.permanent_rate <= 0.0) return false;
  return unit(mix(mix(seed_, kPermanentTag), pid)) <
         actuator.permanent_rate;
}

// --- FaultyDetector ----------------------------------------------------------

namespace {

/// Garbage enum bits a faulted window inference emits: deliberately outside
/// {kBenign, kMalicious, kInvalid} so an engine that forgets to sanitize
/// feeds visibly-broken bits into the threat index and the tests catch it.
constexpr auto kGarbageInference = static_cast<ml::Inference>(0xee);

}  // namespace

ml::Inference FaultyDetector::infer(
    std::span<const hpc::HpcSample> window) const {
  if (!window.empty()) {
    hpc::FeatureVec features;
    hpc::to_features(window.back(), features);
    if (plane_.detector_throws(features)) throw DetectorFault();
    if (plane_.detector_garbage(features)) return kGarbageInference;
  }
  return inner_.infer(window);
}

ml::Inference FaultyDetector::infer(const ml::WindowSummary& summary) const {
  if (summary.count > 0) {
    if (plane_.detector_throws(summary.newest)) throw DetectorFault();
    if (plane_.detector_garbage(summary.newest)) return kGarbageInference;
  }
  return inner_.infer(summary);
}

bool FaultyDetector::measurement_vote(std::span<const double> features) const {
  // Votes are booleans — garbage bits have nowhere to hide, so the vote
  // path only models the throw fault.
  if (plane_.detector_throws(features) || plane_.detector_garbage(features)) {
    throw DetectorFault();
  }
  return inner_.measurement_vote(features);
}

void FaultyDetector::measurement_votes(const ml::FeatureMatrixView& batch,
                                       std::span<std::uint8_t> out) const {
  hpc::FeatureVec features;
  for (std::size_t c = 0; c < batch.count; ++c) {
    batch.gather(c, features);
    if (plane_.detector_throws(features) ||
        plane_.detector_garbage(features)) {
      throw DetectorFault();
    }
  }
  inner_.measurement_votes(batch, out);
}

void FaultyDetector::infer_batch(const ml::SummaryMatrixView& batch,
                                 std::span<ml::Inference> out) const {
  hpc::FeatureVec features;
  const ml::FeatureMatrixView newest = batch.newest_view();
  for (std::size_t c = 0; c < batch.count; ++c) {
    if (batch.counts[c] == 0) continue;
    newest.gather(c, features);
    if (plane_.detector_throws(features) ||
        plane_.detector_garbage(features)) {
      throw DetectorFault();
    }
  }
  inner_.infer_batch(batch, out);
}

}  // namespace valkyrie::fault
