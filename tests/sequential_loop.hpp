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
//
// The engine retains only the raw samples its detector reads
// (Detector::raw_window), so a reference system keeps the same window
// (SequentialLoop does so itself) and the suites compare Telemetry: the
// retained samples, the newest sample and the accumulator state.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/detector.hpp"
#include "sim/system.hpp"

namespace valkyrie::reference {

/// What a system holds of one process's telemetry.
struct Telemetry {
  std::vector<hpc::HpcSample> retained;  // the retained window, oldest first
  hpc::HpcSample last_sample{};
  ml::WindowAccumulator::State accum{};
};

inline Telemetry telemetry(const sim::SimSystem& sys, sim::ProcessId pid) {
  Telemetry t;
  const sim::SimSystem::HistoryView view = sys.history_view(pid);
  for (std::size_t i = 0; i < view.size(); ++i) t.retained.push_back(view[i]);
  t.last_sample = sys.last_sample(pid);
  t.accum = sys.window_accumulator(pid).state();
  return t;
}

/// Bit-exact equality of two processes' telemetry.
inline void expect_same_telemetry(const Telemetry& a, const Telemetry& b,
                                  const std::string& label) {
  ASSERT_EQ(a.retained.size(), b.retained.size()) << label;
  for (std::size_t e = 0; e < a.retained.size(); ++e) {
    ASSERT_EQ(a.retained[e].counts, b.retained[e].counts)
        << label << ", retained sample " << e;
  }
  EXPECT_EQ(a.last_sample.counts, b.last_sample.counts) << label;
  EXPECT_EQ(a.accum.count, b.accum.count) << label;
  EXPECT_EQ(a.accum.mean, b.accum.mean) << label;
  EXPECT_EQ(a.accum.m2, b.accum.m2) << label;
  EXPECT_EQ(a.accum.newest, b.accum.newest) << label;
  EXPECT_EQ(a.accum.fcount, b.accum.fcount) << label;
  EXPECT_EQ(a.accum.newest_mask, b.accum.newest_mask) << label;
}

class SequentialLoop {
 public:
  /// Keeps the detector's raw window, as the engine does.
  SequentialLoop(sim::SimSystem& sys, const ml::Detector& detector)
      : sys_(sys), detector_(detector) {
    sys_.set_history_window(detector.raw_window());
  }

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
/// fault accounting included. The raw window forwards too, so both routes
/// retain the same history.
class PerSlotRoute final : public ml::Detector {
 public:
  explicit PerSlotRoute(const ml::Detector& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t raw_window() const override {
    return inner_.raw_window();
  }
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
