// Bounded ring-buffer history contract (PR 9): capping per-process sample
// history must change MEMORY, never statistics or determinism. Pre-wrap a
// bounded system is indistinguishable from unbounded; post-wrap the
// history_view() span pair reads the last `capacity` samples oldest-first,
// streaming window statistics stay bit-identical (the accumulator folds
// every sample regardless of retention), engine runs on summary-driven
// detectors are unaffected, and a bounded snapshot round-trips through the
// v4 image (linearized oldest-first) byte-identically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "attacks/cryptominer.hpp"
#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "ml/mlp.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "workloads/benchmarks.hpp"

namespace valkyrie {
namespace {

hpc::HpcSignature benign_signature() {
  hpc::HpcSignature sig;
  sig.at(hpc::Event::kInstructions) = 3e8;
  sig.at(hpc::Event::kCycles) = 3.5e8;
  sig.at(hpc::Event::kL1dMisses) = 2e6;
  sig.at(hpc::Event::kLlcMisses) = 4e5;
  sig.at(hpc::Event::kMemBandwidth) = 5e7;
  return sig;
}

hpc::HpcSignature attack_signature() {
  hpc::HpcSignature sig;
  sig.at(hpc::Event::kInstructions) = 4e7;
  sig.at(hpc::Event::kCycles) = 3.5e8;
  sig.at(hpc::Event::kLlcMisses) = 4e7;
  sig.at(hpc::Event::kMemBandwidth) = 2e9;
  return sig;
}

class SigWorkload final : public sim::Workload {
 public:
  explicit SigWorkload(hpc::HpcSignature sig) : sig_(sig) {}
  [[nodiscard]] std::string_view name() const override { return "sig"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    out.hpc = sig_.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    return out;
  }
  [[nodiscard]] double total_progress() const override { return 0.0; }

 private:
  hpc::HpcSignature sig_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_sample(const hpc::HpcSample& a, const hpc::HpcSample& b,
                        const char* what, std::size_t i) {
  EXPECT_EQ(a.counts, b.counts) << what << " sample " << i;
}

/// Twin systems stepped in lockstep: one unbounded, one capped at `cap`.
struct TwinSystems {
  sim::SimSystem unbounded;
  sim::SimSystem bounded;
  std::vector<sim::ProcessId> pids;

  explicit TwinSystems(std::size_t cap, int processes = 6) {
    bounded.enable_bounded_history(cap);
    for (int i = 0; i < processes; ++i) {
      const hpc::HpcSignature sig =
          i % 3 == 1 ? attack_signature() : benign_signature();
      const sim::ProcessId a =
          unbounded.spawn(std::make_unique<SigWorkload>(sig));
      const sim::ProcessId b =
          bounded.spawn(std::make_unique<SigWorkload>(sig));
      EXPECT_EQ(a, b);
      pids.push_back(a);
    }
  }

  void run(int epochs) {
    for (int e = 0; e < epochs; ++e) {
      unbounded.run_epoch();
      bounded.run_epoch();
    }
  }
};

TEST(RingHistory, PreWrapIdenticalToUnbounded) {
  constexpr std::size_t kCap = 32;
  TwinSystems twins(kCap);
  twins.run(20);  // well under the cap
  for (const sim::ProcessId pid : twins.pids) {
    const auto& full = twins.unbounded.sample_history(pid);
    const sim::SimSystem::HistoryView view = twins.bounded.history_view(pid);
    ASSERT_EQ(view.size(), full.size());
    EXPECT_TRUE(view.newer.empty()) << "no wrap may have happened yet";
    for (std::size_t i = 0; i < full.size(); ++i) {
      expect_same_sample(view[i], full[i], "pre-wrap", i);
    }
  }
}

TEST(RingHistory, PostWrapViewIsTheSuffixOfTheUnboundedRun) {
  constexpr std::size_t kCap = 24;
  TwinSystems twins(kCap);
  twins.run(100);  // wraps several times
  for (const sim::ProcessId pid : twins.pids) {
    const auto& full = twins.unbounded.sample_history(pid);
    ASSERT_EQ(full.size(), 100u);
    const sim::SimSystem::HistoryView view = twins.bounded.history_view(pid);
    ASSERT_EQ(view.size(), kCap) << "retention is exactly the cap";
    EXPECT_FALSE(view.newer.empty()) << "the ring must actually have wrapped";
    const std::size_t offset = full.size() - kCap;
    for (std::size_t i = 0; i < kCap; ++i) {
      expect_same_sample(view[i], full[offset + i], "post-wrap", i);
    }
    // The raw buffer still holds the same kCap samples (rotated), so
    // retired-observability consumers lose nothing.
    EXPECT_EQ(twins.bounded.sample_history(pid).size(), kCap);
  }
}

TEST(RingHistory, WindowStatisticsUnaffectedByBounding) {
  constexpr std::size_t kCap = 16;
  TwinSystems twins(kCap);
  twins.run(80);  // stats fold 80 samples; ring retains 16
  for (const sim::ProcessId pid : twins.pids) {
    const ml::WindowSummary a = twins.unbounded.window_summary(pid);
    const ml::WindowSummary b = twins.bounded.window_summary(pid);
    EXPECT_EQ(a.count, b.count);
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      EXPECT_TRUE(same_bits(a.newest[f], b.newest[f])) << "feature " << f;
      EXPECT_TRUE(same_bits(a.mean[f], b.mean[f])) << "feature " << f;
      EXPECT_TRUE(same_bits(a.stddev[f], b.stddev[f])) << "feature " << f;
    }
    // The bounded summary's raw window reads through the span pair and
    // must cover exactly the retained ring, newest measurement last.
    const std::size_t total = b.window_total();
    EXPECT_EQ(total, kCap);
    const auto& full = twins.unbounded.sample_history(pid);
    for (std::size_t i = 0; i < total; ++i) {
      expect_same_sample(b.window_at(i), full[full.size() - total + i],
                         "summary window", i);
    }
  }
}

ml::TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    const hpc::HpcSignature sig =
        label == 1 ? attack_signature() : benign_signature();
    for (int t = 0; t < 8; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name =
          (trace.malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 25; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

/// Snapshot-supported spawn script, pure function of system state.
void scripted_spawn(sim::SimSystem& sys, core::ValkyrieEngine& engine) {
  const std::size_t ordinal = sys.total_spawned();
  const bool attack = ordinal % 6 == 1;
  std::unique_ptr<sim::Workload> workload;
  if (attack) {
    attacks::CryptominerConfig config;
    config.seed = 0xabc0 + ordinal;
    workload = std::make_unique<attacks::CryptominerAttack>(config);
  } else {
    static const std::vector<workloads::BenchmarkSpec> palette =
        workloads::all_single_threaded();
    workloads::BenchmarkSpec spec = palette[ordinal % palette.size()];
    spec.epochs_of_work =
        ordinal % 5 == 2 ? static_cast<double>(30 + ordinal % 20) : 1e9;
    workload = std::make_unique<workloads::BenchmarkWorkload>(std::move(spec));
  }
  const sim::ProcessId pid = sys.spawn(std::move(workload));
  if (ordinal % 7 != 3) {
    engine.attach(pid, core::ValkyrieConfig{},
                  std::make_unique<core::SchedulerWeightActuator>());
  }
}

void scripted_epoch(sim::SimSystem& sys, core::ValkyrieEngine& engine) {
  if (sys.current_epoch() % 29 == 12) scripted_spawn(sys, engine);
  if (sys.current_epoch() % 41 == 20) {
    for (sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
      if (sys.is_live(pid) && !sys.workload(pid).is_attack()) {
        sys.kill(pid);
        break;
      }
    }
  }
  engine.step();
}

TEST(RingHistory, EngineThreatTrajectoryUnaffectedOnSummaryDetector) {
  // The MLP classifies window SUMMARIES, which bounding never changes —
  // so a bounded engine run must land on identical monitor state even
  // after the rings wrap many times, through churn and recycling.
  const ml::MlpDetector detector =
      ml::MlpDetector::make_small_ann(training_corpus(), 0x5eed);
  sim::SimSystem unbounded;
  sim::SimSystem bounded;
  bounded.enable_bounded_history(16);
  core::ValkyrieEngine engine_u(unbounded, detector, 2);
  core::ValkyrieEngine engine_b(bounded, detector, 2);
  for (int i = 0; i < 8; ++i) {
    scripted_spawn(unbounded, engine_u);
    scripted_spawn(bounded, engine_b);
  }
  unbounded.reserve_history(130);
  for (int epoch = 0; epoch < 120; ++epoch) {
    scripted_epoch(unbounded, engine_u);
    scripted_epoch(bounded, engine_b);
  }
  ASSERT_EQ(unbounded.live_processes().size(),
            bounded.live_processes().size());
  for (const sim::ProcessId pid : unbounded.live_processes()) {
    ASSERT_EQ(engine_u.is_attached(pid), engine_b.is_attached(pid));
    if (!engine_u.is_attached(pid)) continue;
    EXPECT_EQ(engine_u.monitor(pid).threat(), engine_b.monitor(pid).threat())
        << "pid " << pid;
    EXPECT_EQ(engine_u.monitor(pid).state(), engine_b.monitor(pid).state())
        << "pid " << pid;
  }
}

TEST(RingHistory, SnapshotRoundTripContinuesByteIdentically) {
  const ml::MlpDetector detector =
      ml::MlpDetector::make_small_ann(training_corpus(), 0x5eed);

  sim::SimSystem golden_sys;
  golden_sys.enable_bounded_history(20);
  core::ValkyrieEngine golden(golden_sys, detector, 2);
  for (int i = 0; i < 8; ++i) scripted_spawn(golden_sys, golden);
  for (int epoch = 0; epoch < 70; ++epoch) scripted_epoch(golden_sys, golden);
  const std::vector<std::uint8_t> mid =
      snapshot::encode(snapshot::capture(golden));
  for (int epoch = 0; epoch < 50; ++epoch) scripted_epoch(golden_sys, golden);
  const std::vector<std::uint8_t> want =
      snapshot::encode(snapshot::capture(golden));

  // The v4 image carries the capacity; the restored system re-arms the
  // bound without the caller asking (fresh system, no pre-enable), and the
  // linearized rings replay byte-identically.
  const snapshot::SnapshotImage image = snapshot::parse(mid);
  EXPECT_EQ(image.system.history_capacity, 20u);
  sim::SimSystem sys2;
  core::ValkyrieEngine engine2(sys2, detector, 8);
  snapshot::restore(image, engine2, snapshot::RestoreContext{});
  EXPECT_EQ(sys2.history_capacity(), 20u);
  for (int epoch = 0; epoch < 50; ++epoch) scripted_epoch(sys2, engine2);
  EXPECT_EQ(want, snapshot::encode(snapshot::capture(engine2)));
}

TEST(RingHistory, EnableValidatesItsPreconditions) {
  sim::SimSystem sys;
  EXPECT_THROW(sys.enable_bounded_history(0), std::invalid_argument);
  (void)sys.spawn(std::make_unique<SigWorkload>(benign_signature()));
  for (int i = 0; i < 10; ++i) sys.run_epoch();
  // A history longer than the requested cap cannot be bounded in place.
  EXPECT_THROW(sys.enable_bounded_history(4), std::logic_error);
  // A cap that still fits is fine.
  sys.enable_bounded_history(64);
  EXPECT_EQ(sys.history_capacity(), 64u);
}

}  // namespace
}  // namespace valkyrie
