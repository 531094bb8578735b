// A deliberately plain sequential driver: the baseline the engine's single
// schedule must reproduce bit for bit, at any worker count. Each step is
// SimSystem::run_epoch(), then — for every live attached process, in slot
// order — one StreamingInference::infer over its window_summary followed by
// ValkyrieMonitor::on_epoch, which applies the response immediately. No
// shards, no feature plane, no batch kernels, no deferred command buffers.
//
// It mirrors the slice of ValkyrieEngine's API the determinism suites drive
// (attach / detach / step / monitor / last_action), so one templated script
// runs against either. PerSlotRoute below is the engine-side reference:
// the same detector, served by the engine's per-slot route.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/detector.hpp"
#include "sim/system.hpp"

namespace valkyrie::reference {

class SequentialLoop {
 public:
  SequentialLoop(sim::SimSystem& sys, const ml::Detector& detector)
      : sys_(sys), detector_(detector) {}

  void attach(sim::ProcessId pid, core::ValkyrieConfig config,
              std::unique_ptr<core::Actuator> actuator) {
    attached_.emplace(
        pid, Attachment{core::ValkyrieMonitor(config, std::move(actuator))});
  }
  void detach(sim::ProcessId pid) { attached_.erase(pid); }
  [[nodiscard]] bool is_attached(sim::ProcessId pid) const {
    return attached_.contains(pid);
  }
  [[nodiscard]] const core::ValkyrieMonitor& monitor(sim::ProcessId pid) const {
    return attached_.at(pid).monitor;
  }
  [[nodiscard]] core::ValkyrieMonitor::Action last_action(
      sim::ProcessId pid) const {
    return attached_.at(pid).last_action;
  }

  /// One epoch. Returns the attached processes still live, like
  /// ValkyrieEngine::step.
  std::size_t step() {
    sys_.run_epoch();
    // A copy: a kill applied below marks its slot for compaction, which
    // the next live_processes() call performs.
    const std::vector<sim::ProcessId> live(sys_.live_processes().begin(),
                                           sys_.live_processes().end());
    for (auto& [pid, a] : attached_) a.last_action = Action::kNone;
    for (const sim::ProcessId pid : live) {
      const auto it = attached_.find(pid);
      if (it == attached_.end()) continue;
      Attachment& a = it->second;
      a.last_action = a.monitor.on_epoch(
          sys_, pid, a.stream.infer(detector_, sys_.window_summary(pid)));
    }
    std::size_t still_live = 0;
    for (const sim::ProcessId pid : sys_.live_processes()) {
      still_live += is_attached(pid) ? 1 : 0;
    }
    return still_live;
  }

 private:
  using Action = core::ValkyrieMonitor::Action;

  struct Attachment {
    core::ValkyrieMonitor monitor;
    ml::StreamingInference stream{};
    Action last_action = Action::kNone;
  };

  sim::SimSystem& sys_;
  const ml::Detector& detector_;
  std::map<sim::ProcessId, Attachment> attached_;
};

/// Forwards everything but the plane declaration, so ValkyrieEngine serves
/// the wrapped detector per slot: the reference the batch route must match,
/// fault accounting included.
class PerSlotRoute final : public ml::Detector {
 public:
  explicit PerSlotRoute(const ml::Detector& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t state_hash() const override {
    return inner_.state_hash();
  }
  [[nodiscard]] std::optional<double> vote_fraction() const override {
    return inner_.vote_fraction();
  }
  [[nodiscard]] ml::Inference infer(
      std::span<const hpc::HpcSample> window) const override {
    return inner_.infer(window);
  }
  [[nodiscard]] ml::Inference infer(
      const ml::WindowSummary& summary) const override {
    return inner_.infer(summary);
  }
  [[nodiscard]] bool measurement_vote(
      std::span<const double> features) const override {
    return inner_.measurement_vote(features);
  }

 private:
  const ml::Detector& inner_;
};

}  // namespace valkyrie::reference
