// Self-test of the outcome extraction on a hand-built few-process
// scenario (valkbench --selftest): one attack, one benign program the
// detector flags once, and one clean benign program, under a stub detector
// whose votes are known in advance. Every tracked outcome is checked
// against an independent per-epoch record kept by the test itself, and the
// decorators are checked to be transparent (same digest traced or not, and
// across worker counts).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "outcome.hpp"
#include "sim/system.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace v = valkyrie;

constexpr double kMarker = 1000.0;  // file ops per epoch the detector flags

/// Emits a fixed HPC sample (no noise) and progresses `rate` per epoch at
/// full CPU share. `flagged_epochs` leading epochs carry the marker.
class StubWorkload final : public v::sim::Workload {
 public:
  StubWorkload(bool attack, double rate, std::uint64_t flagged_epochs)
      : attack_(attack), rate_(rate), flagged_(flagged_epochs) {}

  [[nodiscard]] std::string_view name() const override { return attack_ ? "stub-attack" : "stub"; }
  [[nodiscard]] bool is_attack() const override { return attack_; }
  [[nodiscard]] std::string_view progress_units() const override { return "units"; }
  v::sim::StepResult run_epoch(const v::sim::ResourceShares& shares,
                               v::sim::EpochContext& /*ctx*/) override {
    v::sim::StepResult out;
    out.progress = rate_ * shares.cpu;
    progress_ += out.progress;
    out.hpc[v::hpc::Event::kCycles] = 1e6;
    out.hpc[v::hpc::Event::kInstructions] = 1e6;
    out.hpc[v::hpc::Event::kFileOps] = epochs_++ < flagged_ ? kMarker : 1.0;
    return out;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }

 private:
  bool attack_;
  double rate_;
  std::uint64_t flagged_;
  std::uint64_t epochs_ = 0;
  double progress_ = 0.0;
};

/// Votes malicious exactly for samples carrying the marker.
class StubDetector final : public v::ml::Detector {
 public:
  [[nodiscard]] std::string_view name() const override { return "stub"; }
  [[nodiscard]] v::ml::Inference infer(
      std::span<const v::hpc::HpcSample> window) const override {
    std::size_t votes = 0;
    for (const v::hpc::HpcSample& s : window) {
      if (s[v::hpc::Event::kFileOps] > kMarker / 2) ++votes;
    }
    return 2 * votes > window.size() ? v::ml::Inference::kMalicious : v::ml::Inference::kBenign;
  }
  [[nodiscard]] std::optional<double> vote_fraction() const override { return 0.5; }
  [[nodiscard]] bool measurement_vote(std::span<const double> features) const override {
    return features[static_cast<std::size_t>(v::hpc::Event::kFileOps)] > std::log1p(kMarker / 2);
  }
};

struct Observed {
  std::uint64_t digest = 0;
  OutcomeSummary summary;
  std::vector<AttackOutcome> attacks;
  // The test's own per-epoch record of the attack.
  std::uint64_t throttle_epoch = 0;
  std::uint64_t kill_epoch = 0;
  double attack_ratio = 0.0;
  double benign_slowdown_pct = 0.0;
};

constexpr std::size_t kEpochs = 40;
constexpr double kAttackRate = 10.0;

Observed run(std::size_t threads, SpanBuffers* spans) {
  const StubDetector stub;
  std::optional<TracedDetector> traced;
  if (spans != nullptr) traced.emplace(stub, *spans);
  const v::ml::Detector& det =
      spans != nullptr ? static_cast<const v::ml::Detector&>(*traced) : stub;
  v::sim::SimSystem sys;
  v::core::ValkyrieEngine engine(sys, det, threads);
  v::core::ValkyrieConfig config;
  config.required_measurements = 4;

  // pid 0: clean benign, pid 1: benign flagged in its first epoch,
  // pid 2: the attack (always flagged), arriving at epoch 3.
  const auto spawn = [&](bool attack, double rate, std::uint64_t flagged) {
    std::unique_ptr<v::sim::Workload> w = std::make_unique<StubWorkload>(attack, rate, flagged);
    std::unique_ptr<v::core::Actuator> a = std::make_unique<v::core::SchedulerWeightActuator>();
    if (spans != nullptr) {
      w = std::make_unique<TracedWorkload>(std::move(w), *spans, Span::kBenign);
      a = std::make_unique<TracedActuator>(std::move(a), *spans);
    }
    const v::sim::ProcessId pid = sys.spawn(std::move(w));
    engine.attach(pid, config, std::move(a));
    return pid;
  };
  spawn(false, 1.0, 0);
  spawn(false, 1.0, 1);

  Observed out;
  OutcomeTracker tracker;
  v::sim::ProcessId attack = 0;
  std::uint64_t attack_first = 0;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    if (e == 3) {
      attack = spawn(true, kAttackRate, 1000);
      attack_first = sys.current_epoch();
    }
    engine.step();
    tracker.observe(sys, engine);
    if (e < 3) continue;
    const std::uint64_t age = sys.current_epoch() - attack_first;  // epochs run incl. this one
    if (out.throttle_epoch == 0 && engine.is_attached(attack) && sys.is_live(attack) &&
        engine.last_action(attack) == v::core::ValkyrieMonitor::Action::kThrottled) {
      out.throttle_epoch = age;
    }
    if (out.kill_epoch == 0 && !sys.is_live(attack)) out.kill_epoch = age;
  }
  std::size_t kills = 0;
  double slowdown = 0.0;
  for (v::sim::ProcessId pid = 0; pid < sys.total_spawned(); ++pid) {
    if (sys.exit_reason(pid) == v::sim::ExitReason::kKilled) ++kills;
    const v::sim::Workload& w = sys.workload(pid);
    const auto epochs = static_cast<double>(sys.epochs_run(pid));
    if (w.is_attack()) {
      out.attack_ratio = w.total_progress() / (kAttackRate * epochs);
    } else {
      slowdown += 1.0 - w.total_progress() / epochs;
    }
  }
  out.benign_slowdown_pct = 100.0 * slowdown / 2.0;
  out.summary = tracker.summarize(kills);
  out.attacks = tracker.attacks();
  out.digest = outcome_digest(sys, engine);
  return out;
}

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

}  // namespace

int run_selftest() {
  const Observed base = run(1, nullptr);
  expect(base.summary.attacks == 1 && base.summary.benign == 2, "census: 1 attack, 2 benign");
  expect(base.attacks.size() == 1 && base.attacks[0].first_epoch == 3,
         "attack arrival epoch is its first executed epoch");
  expect(base.throttle_epoch == 1, "the attack is throttled in its first epoch");
  expect(base.attacks[0].throttle_epochs == base.throttle_epoch,
         "throttle latency matches the per-epoch record");
  expect(base.kill_epoch > base.throttle_epoch, "the attack is killed after it is throttled");
  expect(base.attacks[0].kill_epochs == base.kill_epoch,
         "kill latency matches the per-epoch record");
  expect(near(base.summary.attack_progress_ratio, base.attack_ratio) &&
             base.attack_ratio < 1.0,
         "attack progress ratio matches progress / (full rate x epochs)");
  expect(near(base.summary.benign_slowdown_pct, base.benign_slowdown_pct) &&
             base.benign_slowdown_pct > 0.0,
         "benign slowdown matches 1 - progress / epochs_run");
  expect(base.summary.benign_policy_kills == 0 && base.summary.attacks_alive == 0 &&
             base.summary.failed() == 0,
         "no benign kill, no escaped attack");
  expect(base.summary.attack_contained_share == 1.0 && base.summary.benign_survival_share == 1.0,
         "contained and survival shares are 1");

  SpanBuffers spans;
  const Observed traced = run(2, &spans);
  expect(run(2, nullptr).digest == base.digest, "digest is independent of the worker count");
  expect(traced.digest == base.digest, "decorators are transparent (same digest)");
  expect(spans.total_calls(Span::kBenign) > 0 && spans.total_calls(Span::kDetector) > 0 &&
             spans.total_calls(Span::kActuator) > 0,
         "every decorator recorded spans");
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
