// Epoch-consistent snapshot/restore for the full engine stack (the PR's
// operational-recovery subsystem).
//
// Lifecycle:
//
//   capture(engine | driver, image)              (structured, in-memory)
//   encode(image)             -> bytes           (versioned + CRC framing)
//   parse(bytes, image)                          (validates framing + CRC;
//                                                 registry-free)
//   restore(image, engine, ctx)                  (rebuilds live objects)
//
// capture and parse overwrite an existing image and reuse the capacity of
// its tables and payloads, so a loop that keeps its images (the
// Snapshotter, a supervisor's recovery) allocates little after the first;
// the overloads that return a fresh image wrap them.
//
// The restore determinism contract: an engine restored from a snapshot
// taken at epoch E and run to epoch E+k produces BIT-IDENTICAL histories,
// actions and threat indices to the uninterrupted run, for any worker
// count — including snapshots taken mid-churn with dead-marked slots
// awaiting compaction.
//
// Corruption robustness: every parse failure is a typed SnapshotError
// (truncation -> kTruncated, any flipped payload bit -> kBadChecksum, a
// foreign file -> kBadMagic, an unknown format revision -> kBadVersion,
// broken framing -> kBadSection), and restore() validates compatibility
// (detector fingerprint, platform numbers) before mutating the target —
// a failed restore leaves the engine untouched.
//
// Byte encoding lives ONLY in snapshot.cpp; the classes themselves expose
// structured snapshot_state() and restore members over the image types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/valkyrie.hpp"
#include "snapshot/image.hpp"
#include "snapshot/registry.hpp"
#include "util/serial.hpp"

namespace valkyrie::sim {
class ScenarioDriver;
struct ScenarioScript;
}  // namespace valkyrie::sim

namespace valkyrie::snapshot {

/// All snapshot failures are util::SerialError with a typed code; the alias
/// names the contract at the subsystem boundary.
using SnapshotError = util::SerialError;

/// Everything restore() needs that a snapshot deliberately does not carry
/// because it is code, not data: the assessment functions (inside the base
/// monitor config), the terminal detector, and the registries that turn
/// type tags back into live workloads/actuators.
struct RestoreContext {
  /// Supplies the code-level monitor config pieces (assessment functions);
  /// the scalar fields are overwritten per attachment from the image.
  core::ValkyrieConfig base_config{};
  /// Target for attachments captured with a terminal detector; validated
  /// against the recorded fingerprint. May stay null when no attachment
  /// used one.
  const ml::Detector* terminal_detector = nullptr;
  WorkloadRegistry workloads = WorkloadRegistry::bundled();
  ActuatorRegistry actuators = ActuatorRegistry::bundled();
};

/// Captures engine + system state at a closed epoch boundary into `image`.
/// Every field is assigned (has_driver = false; the driver section is then
/// left as it was and means nothing) and the capacity of every table and
/// payload is reused, so capturing into a kept image allocates only where
/// the world outgrew it. The system's cold rows are walked in row order,
/// which is already ascending pid (they are sorted only after retention
/// has recycled a row), and the slots and rows are filled on the engine's
/// own pool, after a serial check that every tracked workload has a
/// snapshot type — so the bytes, and the error, do not depend on the
/// worker count. The attachments are filled serially: a thousand take
/// less time than waking a pool worker. Throws std::logic_error while an
/// epoch is open and SnapshotError(kUnsupportedWorkload) if a
/// workload/actuator lacks snapshot support; the image is then partly
/// overwritten. The capture is a structured copy, cheap enough for the
/// engine thread; encoding/CRC belong on a Snapshotter worker.
void capture(const core::ValkyrieEngine& engine, SnapshotImage& image);

/// As above, plus the scenario driver's section (RNG, stats, scheduled
/// departures, campaign progress) so a churn campaign can resume mid-run.
void capture(const sim::ScenarioDriver& driver, SnapshotImage& image);

/// The captures above, into a fresh image.
[[nodiscard]] SnapshotImage capture(const core::ValkyrieEngine& engine);
[[nodiscard]] SnapshotImage capture(const sim::ScenarioDriver& driver);

/// Serializes an image: magic "VLKYSNP1", format version, then one
/// length-prefixed + CRC32-checksummed section per subsystem.
[[nodiscard]] std::vector<std::uint8_t> encode(const SnapshotImage& image);

/// Smallest encoded size of one element of each counted table: what a
/// default-constructed element encodes to, every string, payload and
/// history empty (a row grows by kSampleBytes per history sample). parse()
/// checks every count against its element's minimum before allocating for
/// it; snapshot.cpp checks each constant against its field list at compile
/// time.
inline constexpr std::size_t kSampleBytes = hpc::kNumEvents * sizeof(double);
inline constexpr std::size_t kMinSlotBytes = 665;
inline constexpr std::size_t kMinRowBytes = 605;
inline constexpr std::size_t kMinAttachmentBytes = 130;
inline constexpr std::size_t kMinRetryBytes = 25;

/// Decodes and validates a snapshot byte stream into `image`, overwriting
/// every section the bytes carry (has_driver says whether they carried a
/// driver) and reusing the image's capacity. Registry-free: workloads and
/// actuators stay {type, payload}. Throws typed SnapshotError on any
/// framing/CRC/structure violation, leaving the image partly overwritten
/// (a later parse into it is still exact); never invokes undefined
/// behaviour on arbitrary input bytes.
void parse(std::span<const std::uint8_t> bytes, SnapshotImage& image);

/// As above, into a fresh image.
[[nodiscard]] SnapshotImage parse(std::span<const std::uint8_t> bytes);

/// Rebuilds the engine (and its system) from an image, in two phases. The
/// engine section is staged first (ValkyrieEngine::stage_restore: detector
/// and terminal fingerprints, attachment fields and pids, the retry table,
/// every actuator loaded), then the system restores (platform numbers,
/// structural invariants, every workload loaded before it mutates), then
/// the staged engine section is committed by moves — so an incompatible
/// or malformed image, whichever section refuses it, throws before the
/// target is mutated. The driver section is NOT applied here: construct a
/// ScenarioDriver with its restore constructor after this call.
void restore(const SnapshotImage& image, core::ValkyrieEngine& engine,
             const RestoreContext& ctx);

/// One field-level difference between two snapshots (see diff()).
struct FieldDiff {
  std::string path;  // e.g. "system.slots[3].rng[0]"
  std::string lhs;
  std::string rhs;
};

/// Field-by-field comparison of two snapshots (the snapshot_diff example's
/// engine). Empty result = bit-identical state.
[[nodiscard]] std::vector<FieldDiff> diff(const SnapshotImage& a,
                                          const SnapshotImage& b);

/// Deterministic fingerprint of a scenario script's data fields (the
/// script itself — monitor configs with assessment functions — is code and
/// is never serialized; the restore constructor takes it again and
/// verifies this fingerprint).
[[nodiscard]] std::uint64_t script_fingerprint(
    const sim::ScenarioScript& script);

}  // namespace valkyrie::snapshot
