// Type-tag registries that turn a PolyImage — {type, opaque payload} —
// back into a live Workload or Actuator at restore time.
//
// Reconstruction is deliberately kept out of parse(): a snapshot can be
// decoded, diffed and validated without any registry, and a snapshot
// carrying a type the restoring process does not know fails with a typed
// kUnsupportedWorkload error instead of a crash. The bundled() registries
// cover every shipped workload/actuator family; tests and out-of-tree
// drivers copy a bundled registry and register their own types on top.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/actuator.hpp"
#include "sim/workload.hpp"
#include "snapshot/image.hpp"
#include "util/serial.hpp"

namespace valkyrie::snapshot {

/// Throws SerialError(kUnsupportedWorkload) when the workload does not
/// advertise a snapshot type — the check poly_image makes, for a capture
/// that checks every workload before filling any.
void require_snapshot_type(const sim::Workload& workload);

/// Serializes a workload/actuator into `out` (the capture-side counterpart
/// of the registries), reusing its string and payload capacity. Throws
/// SerialError(kUnsupportedWorkload) when the object does not advertise a
/// snapshot type.
void poly_image(const sim::Workload& workload, PolyImage& out);
void poly_image(const core::Actuator& actuator, PolyImage& out);

/// As above, into a fresh PolyImage.
[[nodiscard]] PolyImage poly_image(const sim::Workload& workload);

class WorkloadRegistry {
 public:
  using Loader =
      std::function<std::unique_ptr<sim::Workload>(util::ByteReader&)>;

  /// Registers (or replaces) the loader for a type tag.
  void add(std::string type, Loader loader) {
    loaders_[std::move(type)] = std::move(loader);
  }

  [[nodiscard]] bool contains(std::string_view type) const {
    return loaders_.find(type) != loaders_.end();
  }

  /// Reconstructs a workload from its image. Throws
  /// SerialError(kUnsupportedWorkload) for an unknown type, lets the
  /// loader's own SerialErrors (malformed payload) propagate, and reports a
  /// std::invalid_argument from the loader — a workload constructor
  /// refusing its config — as SerialError(kMalformed).
  [[nodiscard]] std::unique_ptr<sim::Workload> load(
      const PolyImage& image) const;

  /// Every shipped workload family: the benchmark palette plus the four
  /// attack families.
  [[nodiscard]] static WorkloadRegistry bundled();

 private:
  std::map<std::string, Loader, std::less<>> loaders_;
};

class ActuatorRegistry {
 public:
  using Loader = std::function<std::unique_ptr<core::Actuator>(
      util::ByteReader&, const ActuatorRegistry&)>;

  void add(std::string type, Loader loader) {
    loaders_[std::move(type)] = std::move(loader);
  }

  [[nodiscard]] bool contains(std::string_view type) const {
    return loaders_.find(type) != loaders_.end();
  }

  [[nodiscard]] std::unique_ptr<core::Actuator> load(
      const PolyImage& image) const;

  /// Nested-object entry point for composite actuators: reads one
  /// inline-serialized {type, length, payload} triple from `in` and
  /// dispatches it.
  [[nodiscard]] std::unique_ptr<core::Actuator> load_nested(
      util::ByteReader& in) const;

  /// Every shipped actuator class, composites included.
  [[nodiscard]] static ActuatorRegistry bundled();

 private:
  std::map<std::string, Loader, std::less<>> loaders_;
};

}  // namespace valkyrie::snapshot
