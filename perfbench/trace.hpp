// Tracing for the benchmark's traced runs: decorators that wrap the
// program's public extension points (Workload, Detector, Actuator) and time
// every call into them, recording into per-thread span buffers.
//
// A span buffer is one cache-line-aligned slot per thread, preallocated
// before the run. A thread claims a slot on its first traced call and from
// then on writes only its own slot, so recording takes no lock and no
// atomic read-modify-write. The bench reads the slots between engine steps,
// after the engine's shards have joined, and writes the totals out at the
// end of the run.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>

#include "core/actuator.hpp"
#include "ml/detector.hpp"
#include "sim/workload.hpp"

namespace perfbench {

/// What a span timed. Workload spans are split by program kind so attack
/// models (which cost orders of magnitude more than a palette program)
/// stay separable from the per-slot sweep.
enum class Span : std::uint8_t {
  kBenign,
  kCryptominer,
  kRansomware,
  kRowhammer,
  kDetector,
  kDetectorBatch,
  kActuator,
  kCount,
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

/// One thread's running totals: per-kind call counts and nanoseconds.
struct alignas(64) ThreadSlot {
  std::array<std::atomic<std::uint64_t>, kSpanKinds> ns{};
  std::array<std::atomic<std::uint64_t>, kSpanKinds> calls{};
};

/// The preallocated per-thread span buffers. Slots are handed out in the
/// order threads first record (engines are rebuilt per pass and per
/// recovery, each with a fresh pool worker). A thread beyond kMaxThreads
/// records nothing and marks the buffers overflowed, which the bench
/// reports as a failed check.
class SpanBuffers {
 public:
  static constexpr std::size_t kMaxThreads = 256;

  void record(Span kind, std::uint64_t ns) noexcept {
    const std::size_t index = thread_slot();
    if (index >= kMaxThreads) {
      overflowed_.store(true, std::memory_order_relaxed);
      return;
    }
    ThreadSlot& slot = slots_[index];
    const auto k = static_cast<std::size_t>(kind);
    // Single writer per slot: a relaxed load + store, no locked RMW.
    slot.ns[k].store(slot.ns[k].load(std::memory_order_relaxed) + ns,
                     std::memory_order_relaxed);
    slot.calls[k].store(slot.calls[k].load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t threads_seen() const noexcept {
    return std::min(next_.load(std::memory_order_acquire), kMaxThreads);
  }
  [[nodiscard]] bool overflowed() const noexcept {
    return overflowed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ThreadSlot& slot(std::size_t i) const { return slots_[i]; }

  /// Sum of one kind over every slot.
  [[nodiscard]] std::uint64_t total_ns(Span kind) const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < threads_seen(); ++i) {
      sum += slots_[i].ns[static_cast<std::size_t>(kind)].load(
          std::memory_order_relaxed);
    }
    return sum;
  }
  [[nodiscard]] std::uint64_t total_calls(Span kind) const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < threads_seen(); ++i) {
      sum += slots_[i].calls[static_cast<std::size_t>(kind)].load(
          std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  std::size_t thread_slot() noexcept {
    // The cached index is only valid for the buffers that issued it; ids
    // are never reused, so a later buffers object at the same address
    // cannot inherit a stale index.
    thread_local std::uint64_t owner = 0;
    thread_local std::size_t index = 0;
    if (owner != id_) {
      index = next_.fetch_add(1, std::memory_order_acq_rel);
      owner = id_;
    }
    return index;
  }

  static std::uint64_t next_id() noexcept {
    static std::atomic<std::uint64_t> ids{0};
    return ids.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::unique_ptr<ThreadSlot[]> slots_ = std::make_unique<ThreadSlot[]>(kMaxThreads);
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> overflowed_{false};
  const std::uint64_t id_ = next_id();
};

/// RAII span: records the elapsed steady-clock time on destruction, so a
/// call that throws is still counted.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffers& buffers, Span kind)
      : buffers_(buffers), kind_(kind), start_(Clock::now()) {}
  ~ScopedSpan() {
    buffers_.record(kind_, static_cast<std::uint64_t>(
                               std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now() - start_)
                                   .count()));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  SpanBuffers& buffers_;
  Span kind_;
  Clock::time_point start_;
};

/// Times every run_epoch of the wrapped program. Has no snapshot hooks, so
/// a traced world cannot be checkpointed — traced runs never do.
class TracedWorkload final : public valkyrie::sim::Workload {
 public:
  TracedWorkload(std::unique_ptr<valkyrie::sim::Workload> inner,
                 SpanBuffers& buffers, Span kind)
      : inner_(std::move(inner)), buffers_(buffers), kind_(kind) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] bool is_attack() const override { return inner_->is_attack(); }
  [[nodiscard]] std::string_view progress_units() const override {
    return inner_->progress_units();
  }
  valkyrie::sim::StepResult run_epoch(const valkyrie::sim::ResourceShares& shares,
                                      valkyrie::sim::EpochContext& ctx) override {
    const ScopedSpan span(buffers_, kind_);
    return inner_->run_epoch(shares, ctx);
  }
  [[nodiscard]] double total_progress() const override {
    return inner_->total_progress();
  }

 private:
  std::unique_ptr<valkyrie::sim::Workload> inner_;
  SpanBuffers& buffers_;
  Span kind_;
};

/// Times every call into the wrapped detector. Identity (name, state hash,
/// vote structure, plane sections) forwards unchanged, like
/// fault::FaultyDetector, so the engine routes exactly as it would for the
/// bare detector.
class TracedDetector final : public valkyrie::ml::Detector {
 public:
  TracedDetector(const valkyrie::ml::Detector& inner, SpanBuffers& buffers)
      : inner_(inner), buffers_(buffers) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t state_hash() const override {
    return inner_.state_hash();
  }
  [[nodiscard]] std::optional<double> vote_fraction() const override {
    return inner_.vote_fraction();
  }
  [[nodiscard]] PlaneSections plane_sections() const override {
    return inner_.plane_sections();
  }
  [[nodiscard]] valkyrie::ml::Inference infer(
      std::span<const valkyrie::hpc::HpcSample> window) const override {
    const ScopedSpan span(buffers_, Span::kDetector);
    return inner_.infer(window);
  }
  [[nodiscard]] valkyrie::ml::Inference infer(
      const valkyrie::ml::WindowSummary& summary) const override {
    const ScopedSpan span(buffers_, Span::kDetector);
    return inner_.infer(summary);
  }
  [[nodiscard]] bool measurement_vote(
      std::span<const double> features) const override {
    const ScopedSpan span(buffers_, Span::kDetector);
    return inner_.measurement_vote(features);
  }
  void measurement_votes(const valkyrie::ml::FeatureMatrixView& batch,
                         std::span<std::uint8_t> out) const override {
    const ScopedSpan span(buffers_, Span::kDetectorBatch);
    inner_.measurement_votes(batch, out);
  }
  void infer_batch(const valkyrie::ml::SummaryMatrixView& batch,
                   std::span<valkyrie::ml::Inference> out) const override {
    const ScopedSpan span(buffers_, Span::kDetectorBatch);
    inner_.infer_batch(batch, out);
  }

 private:
  const valkyrie::ml::Detector& inner_;
  SpanBuffers& buffers_;
};

/// Times every apply/reset of the wrapped actuator (the engine's serial
/// command commit). No snapshot hooks, like TracedWorkload.
class TracedActuator final : public valkyrie::core::Actuator {
 public:
  TracedActuator(std::unique_ptr<valkyrie::core::Actuator> inner,
                 SpanBuffers& buffers)
      : inner_(std::move(inner)), buffers_(buffers) {}

  void apply(valkyrie::sim::SimSystem& sys, valkyrie::sim::ProcessId pid,
             double delta_threat) override {
    const ScopedSpan span(buffers_, Span::kActuator);
    inner_->apply(sys, pid, delta_threat);
  }
  void reset(valkyrie::sim::SimSystem& sys, valkyrie::sim::ProcessId pid) override {
    const ScopedSpan span(buffers_, Span::kActuator);
    inner_->reset(sys, pid);
  }

 private:
  std::unique_ptr<valkyrie::core::Actuator> inner_;
  SpanBuffers& buffers_;
};

}  // namespace perfbench
