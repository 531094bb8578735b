#include "snapshot/registry.hpp"

#include <stdexcept>
#include <utility>

#include "attacks/cryptominer.hpp"
#include "attacks/exfiltrator.hpp"
#include "attacks/ransomware.hpp"
#include "attacks/rowhammer.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie::snapshot {

namespace {

using util::SerialError;

[[noreturn]] void throw_unsupported(std::string_view kind,
                                    std::string_view name) {
  throw SerialError(SerialError::Code::kUnsupportedWorkload,
                    "snapshot: " + std::string(kind) + " '" +
                        std::string(name) + "' has no snapshot support");
}

// The type tag and payload, written over `out`'s capacity; the caller has
// checked the type.
template <class T>
void fill_poly_image(const T& object, PolyImage& out) {
  out.type.assign(object.snapshot_type());
  out.payload.clear();
  util::ByteWriter writer(out.payload);
  object.snapshot_save(writer);
}

}  // namespace

void require_snapshot_type(const sim::Workload& workload) {
  if (workload.snapshot_type().empty()) {
    throw_unsupported("workload", workload.name());
  }
}

void poly_image(const sim::Workload& workload, PolyImage& out) {
  require_snapshot_type(workload);
  fill_poly_image(workload, out);
}

void poly_image(const core::Actuator& actuator, PolyImage& out) {
  if (actuator.snapshot_type().empty()) {
    throw_unsupported("actuator", "composite/custom");
  }
  fill_poly_image(actuator, out);
}

PolyImage poly_image(const sim::Workload& workload) {
  PolyImage out;
  poly_image(workload, out);
  return out;
}

std::unique_ptr<sim::Workload> WorkloadRegistry::load(
    const PolyImage& image) const {
  const auto it = loaders_.find(image.type);
  if (it == loaders_.end()) {
    throw SerialError(SerialError::Code::kUnsupportedWorkload,
                      "snapshot: no workload loader registered for type '" +
                          image.type + "'");
  }
  util::ByteReader reader(image.payload);
  std::unique_ptr<sim::Workload> out;
  try {
    out = it->second(reader);
  } catch (const std::invalid_argument& e) {
    // A workload constructor refusing the config it was handed.
    throw SerialError(SerialError::Code::kMalformed, e.what());
  }
  if (!reader.done()) {
    throw SerialError(SerialError::Code::kMalformed,
                      "snapshot: trailing bytes after workload payload '" +
                          image.type + "'");
  }
  return out;
}

WorkloadRegistry WorkloadRegistry::bundled() {
  WorkloadRegistry out;
  out.add("benchmark", [](util::ByteReader& in) {
    return workloads::BenchmarkWorkload::snapshot_load(in);
  });
  out.add("attack.cryptominer", [](util::ByteReader& in) {
    return attacks::CryptominerAttack::snapshot_load(in);
  });
  out.add("attack.ransomware", [](util::ByteReader& in) {
    return attacks::RansomwareAttack::snapshot_load(in);
  });
  out.add("attack.exfiltrator", [](util::ByteReader& in) {
    return attacks::ExfiltratorAttack::snapshot_load(in);
  });
  out.add("attack.rowhammer", [](util::ByteReader& in) {
    return attacks::RowhammerAttack::snapshot_load(in);
  });
  return out;
}

std::unique_ptr<core::Actuator> ActuatorRegistry::load(
    const PolyImage& image) const {
  const auto it = loaders_.find(image.type);
  if (it == loaders_.end()) {
    throw SerialError(SerialError::Code::kUnsupportedWorkload,
                      "snapshot: no actuator loader registered for type '" +
                          image.type + "'");
  }
  util::ByteReader reader(image.payload);
  std::unique_ptr<core::Actuator> out = it->second(reader, *this);
  if (!reader.done()) {
    throw SerialError(SerialError::Code::kMalformed,
                      "snapshot: trailing bytes after actuator payload '" +
                          image.type + "'");
  }
  return out;
}

std::unique_ptr<core::Actuator> ActuatorRegistry::load_nested(
    util::ByteReader& in) const {
  PolyImage image;
  image.type = in.str();
  const std::size_t payload_bytes = in.length();
  const std::span<const std::uint8_t> payload = in.bytes(payload_bytes);
  image.payload.assign(payload.begin(), payload.end());
  return load(image);
}

ActuatorRegistry ActuatorRegistry::bundled() {
  ActuatorRegistry out;
  out.add("act.sched_weight",
          [](util::ByteReader& in, const ActuatorRegistry& registry) {
            return core::SchedulerWeightActuator::snapshot_load(in, registry);
          });
  out.add("act.cgroup_cpu",
          [](util::ByteReader& in, const ActuatorRegistry& registry) {
            return core::CgroupCpuActuator::snapshot_load(in, registry);
          });
  out.add("act.cgroup_fs",
          [](util::ByteReader& in, const ActuatorRegistry& registry) {
            return core::CgroupFsActuator::snapshot_load(in, registry);
          });
  out.add("act.cgroup_mem",
          [](util::ByteReader& in, const ActuatorRegistry& registry) {
            return core::CgroupMemActuator::snapshot_load(in, registry);
          });
  out.add("act.cgroup_net",
          [](util::ByteReader& in, const ActuatorRegistry& registry) {
            return core::CgroupNetActuator::snapshot_load(in, registry);
          });
  out.add("act.composite",
          [](util::ByteReader& in, const ActuatorRegistry& registry) {
            return core::CompositeActuator::snapshot_load(in, registry);
          });
  return out;
}

}  // namespace valkyrie::snapshot
