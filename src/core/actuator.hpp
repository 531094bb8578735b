// Actuator functions A(R_{i-1}, dT) (paper §V-B): translate threat-index
// changes into resource throttling, and Areset: restore defaults.
//
// Two families, matching the paper's case studies (Table III):
//  * SchedulerWeightActuator — Eq. 8: multiplicative CFS-weight demotion,
//    used for the micro-architectural and rowhammer case studies.
//  * Cgroup actuators — cap CPU quota / memory residency / network
//    bandwidth / file-access rate, used for ransomware and cryptominers.
// A CompositeActuator throttles several resources at once (Q1 in §IV-C:
// throttle the resources the attack class actually depends on).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "sim/system.hpp"

namespace valkyrie::util {
class ByteWriter;
class ByteReader;
}  // namespace valkyrie::util

namespace valkyrie::snapshot {
class ActuatorRegistry;
}  // namespace valkyrie::snapshot

namespace valkyrie::core {

class Actuator {
 public:
  virtual ~Actuator() = default;

  /// Applies the resource update for a threat-index change of
  /// `delta_threat` (positive = tighten, negative = relax). Called once per
  /// epoch while the process is under measurement; delta 0 must be a no-op.
  virtual void apply(sim::SimSystem& sys, sim::ProcessId pid,
                     double delta_threat) = 0;

  /// Areset: removes every restriction this actuator imposed.
  virtual void reset(sim::SimSystem& sys, sim::ProcessId pid) = 0;

  // --- Snapshot hooks --------------------------------------------------------
  // Same contract as sim::Workload's hooks: a stable type tag plus a
  // parameter dump, with reconstruction via a static snapshot_load on the
  // concrete class dispatched through a snapshot::ActuatorRegistry. Empty
  // tag = snapshot unsupported (capture fails with a typed error).

  [[nodiscard]] virtual std::string_view snapshot_type() const { return {}; }
  virtual void snapshot_save(util::ByteWriter& /*out*/) const {}
};

/// A deferred actuator invocation. Monitors running inside parallel engine
/// shards must not mutate shared system state (scheduler weights, cgroup
/// caps, process liveness), so they emit commands into per-shard buffers
/// which the engine applies serially after the shards join — the response
/// still lands before the next epoch's workload execution, preserving the
/// paper's Eq. 3 next-epoch timing. Every command targets only its own
/// process's state and a process plans at most one command per epoch, so
/// the committed state is invariant under drain order: the engine's
/// live-slot order and a sequential loop's interleaved application produce
/// identical results.
struct ActuatorCommand {
  enum class Kind : std::uint8_t {
    kNone,   // nothing to apply
    kApply,  // actuator->apply(sys, pid, delta)
    kReset,  // actuator->reset(sys, pid)
    kKill,   // sys.kill(pid); no actuator involved
  };

  Kind kind = Kind::kNone;
  sim::ProcessId pid = 0;
  double delta = 0.0;
  Actuator* actuator = nullptr;  // non-owning; null for kKill/kNone

  /// Executes the command against the system (the serial commit phase).
  void apply(sim::SimSystem& sys) const;
};

/// Eq. 8: relative scheduler weight s -> s * (1 -/+ gamma*|dT|), clamped to
/// [min_share, 1]. gamma lives in the simulator's scheduler config.
class SchedulerWeightActuator final : public Actuator {
 public:
  void apply(sim::SimSystem& sys, sim::ProcessId pid,
             double delta_threat) override;
  void reset(sim::SimSystem& sys, sim::ProcessId pid) override;

  [[nodiscard]] std::string_view snapshot_type() const override {
    return "act.sched_weight";
  }
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<Actuator> snapshot_load(
      util::ByteReader& in, const snapshot::ActuatorRegistry& registry);
};

/// cgroup cpu.max-style quota: the cap drops by `step` (percentage points
/// of the full share) per unit of threat increase, recovers likewise, and
/// never goes below `floor` — the §V-C worked-example actuator ("drops the
/// CPU share by 10% for every increase in the threat index, minimum 1%").
/// `floor` doubles as the paper's user-configurable slowdown limit.
class CgroupCpuActuator final : public Actuator {
 public:
  explicit CgroupCpuActuator(double step = 0.10, double floor = 0.01)
      : step_(step), floor_(floor) {}

  void apply(sim::SimSystem& sys, sim::ProcessId pid,
             double delta_threat) override;
  void reset(sim::SimSystem& sys, sim::ProcessId pid) override;

  [[nodiscard]] std::string_view snapshot_type() const override {
    return "act.cgroup_cpu";
  }
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<Actuator> snapshot_load(
      util::ByteReader& in, const snapshot::ActuatorRegistry& registry);

 private:
  double step_;
  double floor_;
};

/// cgroup file-access throttling: halves the permitted file-access rate on
/// every threat increase and doubles it on every decrease (paper §VI-C:
/// "halves the rate of file accesses every time there is an increase in
/// the threat index", 7 files/epoch -> 1 file/epoch).
class CgroupFsActuator final : public Actuator {
 public:
  explicit CgroupFsActuator(double factor = 0.5, double floor = 1.0 / 7.0)
      : factor_(factor), floor_(floor) {}

  void apply(sim::SimSystem& sys, sim::ProcessId pid,
             double delta_threat) override;
  void reset(sim::SimSystem& sys, sim::ProcessId pid) override;

  [[nodiscard]] std::string_view snapshot_type() const override {
    return "act.cgroup_fs";
  }
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<Actuator> snapshot_load(
      util::ByteReader& in, const snapshot::ActuatorRegistry& registry);

 private:
  double factor_;
  double floor_;
};

/// cgroup memory limit: shrinks the resident-set allowance by `step`
/// percentage points per unit of threat increase. Memory throttling is the
/// sharp, non-linear knob of Table II — a small step goes a long way.
class CgroupMemActuator final : public Actuator {
 public:
  explicit CgroupMemActuator(double step = 0.02, double floor = 0.85)
      : step_(step), floor_(floor) {}

  void apply(sim::SimSystem& sys, sim::ProcessId pid,
             double delta_threat) override;
  void reset(sim::SimSystem& sys, sim::ProcessId pid) override;

  [[nodiscard]] std::string_view snapshot_type() const override {
    return "act.cgroup_mem";
  }
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<Actuator> snapshot_load(
      util::ByteReader& in, const snapshot::ActuatorRegistry& registry);

 private:
  double step_;
  double floor_;
};

/// cgroup network-bandwidth cap: scales the cap by factor^dT (order-of-
/// magnitude steps match Table II's policing behaviour).
class CgroupNetActuator final : public Actuator {
 public:
  explicit CgroupNetActuator(double factor = 0.5, double floor = 1e-6)
      : factor_(factor), floor_(floor) {}

  void apply(sim::SimSystem& sys, sim::ProcessId pid,
             double delta_threat) override;
  void reset(sim::SimSystem& sys, sim::ProcessId pid) override;

  [[nodiscard]] std::string_view snapshot_type() const override {
    return "act.cgroup_net";
  }
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<Actuator> snapshot_load(
      util::ByteReader& in, const snapshot::ActuatorRegistry& registry);

 private:
  double factor_;
  double floor_;
};

/// Applies several actuators in sequence.
class CompositeActuator final : public Actuator {
 public:
  explicit CompositeActuator(std::vector<std::unique_ptr<Actuator>> parts)
      : parts_(std::move(parts)) {}

  void apply(sim::SimSystem& sys, sim::ProcessId pid,
             double delta_threat) override;
  void reset(sim::SimSystem& sys, sim::ProcessId pid) override;

  /// Supported iff every part is; the tag is empty otherwise so capture
  /// fails loudly rather than dropping a part.
  [[nodiscard]] std::string_view snapshot_type() const override;
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<Actuator> snapshot_load(
      util::ByteReader& in, const snapshot::ActuatorRegistry& registry);

 private:
  std::vector<std::unique_ptr<Actuator>> parts_;
};

}  // namespace valkyrie::core
