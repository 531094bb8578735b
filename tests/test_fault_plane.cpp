// The runtime fault plane and the engine's graceful degradation around it:
// pure-hash fault schedules (bit-reproducible by construction), sensor
// quarantine with coast-then-blind staleness handling, detector-fault
// containment and garbage sanitization, and the actuator retry/backoff
// ladder with escalation toward kill.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string_view>
#include <utility>

#include "core/actuator.hpp"
#include "core/valkyrie.hpp"
#include "fault/fault_plane.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"

namespace valkyrie::fault {
namespace {

using core::ValkyrieEngine;

// --- The plane itself --------------------------------------------------------

TEST(FaultPlane, DecisionsArePureFunctionsOfSeedAndIdentity) {
  const FaultPlane a(0xfab1e);
  FaultPlane b(0xfab1e);
  FaultPlane c(0xfab1e + 1);
  for (FaultPlane* p : {&b, &c}) {
    p->sensor.dropout_rate = 0.1;
    p->sensor.nan_rate = 0.1;
    p->actuator.transient_rate = 0.2;
    p->actuator.permanent_rate = 0.05;
  }
  FaultPlane armed(0xfab1e);
  armed.sensor = b.sensor;
  armed.actuator = b.actuator;

  bool any_fault = false;
  bool diverged = false;
  for (std::uint64_t epoch = 0; epoch < 64; ++epoch) {
    for (std::uint32_t pid = 0; pid < 64; ++pid) {
      // Zero rates: never a fault, whatever the identity.
      EXPECT_EQ(a.sensor_fault(epoch, pid), SensorFaultKind::kNone);
      EXPECT_FALSE(a.actuator_fails(epoch, pid));
      // Same seed + same rates: the same answer on every consultation.
      EXPECT_EQ(armed.sensor_fault(epoch, pid), b.sensor_fault(epoch, pid));
      EXPECT_EQ(armed.actuator_fails(epoch, pid),
                b.actuator_fails(epoch, pid));
      any_fault |= b.sensor_fault(epoch, pid) != SensorFaultKind::kNone;
      diverged |= b.sensor_fault(epoch, pid) != c.sensor_fault(epoch, pid);
    }
  }
  EXPECT_TRUE(any_fault) << "10%+10% over 4096 draws must fire";
  EXPECT_TRUE(diverged) << "different seeds must give different schedules";
  EXPECT_FALSE(a.any_sensor());
  EXPECT_FALSE(a.any_actuator());
  EXPECT_TRUE(b.any_sensor());
  EXPECT_TRUE(b.any_actuator());
}

TEST(FaultPlane, RatePartitionCoversEveryKind) {
  FaultPlane plane(0x51ab);
  plane.sensor = {0.25, 0.25, 0.25, 0.25};  // every draw faults, 4 ways
  std::set<SensorFaultKind> seen;
  for (std::uint64_t epoch = 0; epoch < 32; ++epoch) {
    for (std::uint32_t pid = 0; pid < 32; ++pid) {
      const SensorFaultKind kind = plane.sensor_fault(epoch, pid);
      EXPECT_NE(kind, SensorFaultKind::kNone);
      seen.insert(kind);
    }
  }
  EXPECT_EQ(seen.size(), 4u);

  FaultPlane always(0x51ab);
  always.sensor.dropout_rate = 1.0;
  EXPECT_EQ(always.sensor_fault(7, 3), SensorFaultKind::kDropout);
  always.actuator.transient_rate = 1.0;
  EXPECT_TRUE(always.actuator_fails(7, 3));
}

TEST(FaultPlane, DetectorFaultsKeyOnFeatureBits) {
  FaultPlane plane(0xdead);
  plane.detector.throw_rate = 0.3;
  plane.detector.garbage_rate = 0.3;
  const double features_a[] = {1.0, 2.0, 3.0};
  const double features_b[] = {1.0, 2.0, 3.0000001};
  // Same bits, same decision — wherever and however often it is asked.
  EXPECT_EQ(plane.detector_throws(features_a),
            plane.detector_throws(features_a));
  EXPECT_EQ(plane.detector_garbage(features_a),
            plane.detector_garbage(features_a));
  // A throw decision and a garbage decision never coincide (one draw,
  // partitioned), and some feature vector in a sweep hits each.
  bool any_throw = false;
  bool any_garbage = false;
  for (int i = 0; i < 256; ++i) {
    const double f[] = {static_cast<double>(i), 2.0, 3.0};
    const bool t = plane.detector_throws(f);
    const bool g = plane.detector_garbage(f);
    EXPECT_FALSE(t && g);
    any_throw |= t;
    any_garbage |= g;
  }
  EXPECT_TRUE(any_throw);
  EXPECT_TRUE(any_garbage);
  (void)features_b;
}

// --- Shared run scaffolding --------------------------------------------------

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
  SigWorkload(hpc::HpcSignature sig, bool attack) : sig_(sig), attack_(attack) {}
  [[nodiscard]] std::string_view name() const override { return "sig"; }
  [[nodiscard]] bool is_attack() const override { return attack_; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    progress_ += out.progress;
    out.hpc = sig_.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    return out;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }

 private:
  hpc::HpcSignature sig_;
  bool attack_;
  double progress_ = 0.0;
};

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

// --- Sensor quarantine -------------------------------------------------------

TEST(FaultPlane, QuarantineCommitsNothingAndTracksTheStreak) {
  FaultPlane plane(0x9a1);  // any seed; rate 1.0 makes the loss total
  plane.sensor.nan_rate = 1.0;

  sim::SimSystem sys;
  const sim::ProcessId pid =
      sys.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
  // 5 clean epochs first, then arm: the streak must start from the armed
  // epoch and the clean window must survive untouched.
  for (int i = 0; i < 5; ++i) sys.run_epoch();
  const auto clean_window = sys.sample_history(pid);
  ASSERT_EQ(clean_window.size(), 5u);

  sys.arm_sensor_faults(&plane);
  for (int i = 0; i < 7; ++i) sys.run_epoch();
  EXPECT_EQ(sys.invalid_streak(pid), 7u);
  EXPECT_EQ(sys.epochs_run(pid), 12u) << "execution advances, telemetry lost";
  EXPECT_EQ(sys.sample_history(pid).size(), 5u)
      << "quarantined samples must not reach the history";
  EXPECT_EQ(sys.window_summary(pid).count, 5u);
  for (const double c : sys.window_summary(pid).newest) {
    EXPECT_TRUE(std::isfinite(c)) << "NaN leaked into the window state";
  }

  // Recovery: disarm (sensor heals) and the streak resets on the first
  // valid sample.
  sys.arm_sensor_faults(nullptr);
  sys.run_epoch();
  EXPECT_EQ(sys.invalid_streak(pid), 0u);
  EXPECT_EQ(sys.sample_history(pid).size(), 6u);
}

TEST(FaultPlane, StuckAndSaturatedSensorsAreCaughtByValidation) {
  // Stuck: bit-exact repeat of the previous sample. Saturated: counters at
  // the transport ceiling. Both must quarantine, not poison the window.
  for (const bool saturated : {false, true}) {
    FaultPlane plane(0x57ac);
    if (saturated) {
      plane.sensor.saturate_rate = 1.0;
    } else {
      plane.sensor.stuck_rate = 1.0;
    }
    sim::SimSystem sys;
    const sim::ProcessId pid =
        sys.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
    sys.run_epoch();  // one clean sample for "stuck" to repeat
    sys.arm_sensor_faults(&plane);
    for (int i = 0; i < 4; ++i) sys.run_epoch();
    EXPECT_EQ(sys.invalid_streak(pid), 4u) << "saturated=" << saturated;
    EXPECT_EQ(sys.sample_history(pid).size(), 1u) << "saturated=" << saturated;
  }
}

// --- Engine degradation: coast, then blind -----------------------------------

TEST(FaultPlane, CoastWithinBudgetThenGoBlind) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  FaultPlane plane(0xb11d);

  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  engine.set_fault_tolerance({.staleness_budget = 3});
  engine.arm_faults(&plane);
  const sim::ProcessId pid =
      sys.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
  // Lifetime-scoped measurements with a high N*: every epoch with a valid
  // verdict counts, which makes the coast/blind boundary observable.
  engine.attach(pid,
                core::ValkyrieConfig{.required_measurements = 1000,
                                     .episode_scoped_measurements = false},
                std::make_unique<core::SchedulerWeightActuator>());

  // Warm up clean (plane armed but all rates zero — no faults fire).
  for (int i = 0; i < 10; ++i) engine.step();
  ASSERT_EQ(engine.fault_health().coasted, 0u);
  ASSERT_EQ(engine.fault_health().blind, 0u);
  ASSERT_EQ(engine.monitor(pid).measurements(), 10u);

  // Total sensor loss: streaks 1..3 coast on the stale window (still a
  // usable verdict), 4+ are blind — no verdict at all, no detector call on
  // garbage-stale state, no measurement consumed.
  plane.sensor.dropout_rate = 1.0;
  for (int i = 0; i < 9; ++i) engine.step();
  EXPECT_EQ(engine.fault_health().coasted, 3u);
  EXPECT_EQ(engine.fault_health().blind, 6u);
  EXPECT_EQ(engine.monitor(pid).measurements(), 13u)
      << "coast epochs count, blind epochs must not";
  EXPECT_TRUE(sys.is_live(pid));

  // Sensor heals: the slot re-admits on the first valid sample and normal
  // inference resumes (no further coast/blind growth).
  plane.sensor.dropout_rate = 0.0;
  for (int i = 0; i < 5; ++i) engine.step();
  EXPECT_EQ(engine.fault_health().coasted, 3u);
  EXPECT_EQ(engine.fault_health().blind, 6u);
  EXPECT_EQ(engine.monitor(pid).measurements(), 18u);
}

// --- Detector containment ----------------------------------------------------

TEST(FaultPlane, DetectorThrowsAreContainedPerSlot) {
  const ml::SvmDetector inner = ml::SvmDetector::make(training_corpus(), 3);
  FaultPlane plane(0x7407);
  plane.detector.throw_rate = 1.0;  // every scored measurement faults
  const FaultyDetector detector(inner, plane);

  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, 1);
  engine.arm_faults(&plane);
  for (int i = 0; i < 4; ++i) {
    sys.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
    engine.attach(static_cast<sim::ProcessId>(i), core::ValkyrieConfig{},
                  std::make_unique<core::SchedulerWeightActuator>());
  }
  std::size_t live = 0;
  for (int i = 0; i < 12; ++i) live = engine.step();  // must not throw
  EXPECT_EQ(live, 4u);
  EXPECT_EQ(engine.fault_health().detector_faults, 4u * 12u)
      << "every slot, every epoch, contained";
  // An epoch-long fault means no usable verdict — threat must stay put.
  for (sim::ProcessId pid = 0; pid < 4; ++pid) {
    EXPECT_EQ(engine.monitor(pid).threat(), 0.0);
  }
}

TEST(FaultPlane, GarbageInferenceBitsAreSanitized) {
  const ml::SvmDetector inner = ml::SvmDetector::make(training_corpus(), 3);
  FaultPlane plane(0x6a4b);
  plane.detector.garbage_rate = 1.0;
  const FaultyDetector detector(inner, plane);

  // Unit level: the wrapper really does emit out-of-range enum bits...
  sim::SimSystem probe;
  const sim::ProcessId ppid =
      probe.spawn(std::make_unique<SigWorkload>(benign_signature(), false));
  for (int i = 0; i < 3; ++i) probe.run_epoch();
  const ml::Inference raw = detector.infer(probe.window_summary(ppid));
  EXPECT_EQ(static_cast<std::uint8_t>(raw), 0xee);

  // ...and the engine maps them to the explicit invalid state instead of
  // letting 0xee alias "benign" (or worse) downstream. The stream calls
  // infer() every epoch only for non-vote detectors, so this leg runs on
  // the MLP (the SVM's vote path turns faults into throws instead).
  const ml::MlpDetector mlp =
      ml::MlpDetector::make_small_ann(training_corpus(), 0x5eed);
  const FaultyDetector faulty_mlp(mlp, plane);
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, faulty_mlp, 1);
  engine.arm_faults(&plane);
  const sim::ProcessId pid =
      sys.spawn(std::make_unique<SigWorkload>(attack_signature(), true));
  engine.attach(pid, core::ValkyrieConfig{},
                std::make_unique<core::SchedulerWeightActuator>());
  for (int i = 0; i < 10; ++i) engine.step();
  EXPECT_EQ(engine.fault_health().sanitized, 10u);
  EXPECT_EQ(engine.monitor(pid).threat(), 0.0)
      << "sanitized garbage must not move the threat index";
}

// --- Actuator retry / backoff / escalation -----------------------------------

/// Runs an attack process against the policy until commands flow, with the
/// given actuator-fault rates armed from the start.
struct ActuatorRun {
  std::unique_ptr<sim::SimSystem> sys;
  std::unique_ptr<ValkyrieEngine> engine;
  sim::ProcessId pid = 0;
};

ActuatorRun run_attack_with_faults(const ml::SvmDetector& detector,
                                   const FaultPlane& plane,
                                   ValkyrieEngine::FaultToleranceConfig cfg,
                                   int epochs,
                                   core::ValkyrieConfig monitor_cfg = {}) {
  ActuatorRun run;
  run.sys = std::make_unique<sim::SimSystem>();
  run.engine = std::make_unique<ValkyrieEngine>(*run.sys, detector, 1);
  run.engine->set_fault_tolerance(cfg);
  run.engine->arm_faults(&plane);
  run.pid = run.sys->spawn(
      std::make_unique<SigWorkload>(attack_signature(), true));
  run.engine->attach(run.pid, monitor_cfg,
                     std::make_unique<core::SchedulerWeightActuator>());
  for (int i = 0; i < epochs; ++i) run.engine->step();
  return run;
}

TEST(FaultPlane, PermanentThrottleFailureEscalatesToKill) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  FaultPlane plane(0xe5ca);
  plane.actuator.permanent_rate = 1.0;  // throttle channel dead, kills work

  // N* out of reach: the policy itself never reaches the terminable kill,
  // so the ONLY path to termination is the retry ladder escalating the
  // dead throttle channel.
  const ActuatorRun run = run_attack_with_faults(
      detector, plane, {.escalate_after = 3}, 120,
      core::ValkyrieConfig{.required_measurements = 100000});
  const ValkyrieEngine::FaultHealth health = run.engine->fault_health();
  EXPECT_GT(health.actuator_failures, 0u);
  EXPECT_GT(health.retries, 0u);
  EXPECT_GE(health.escalations, 1u)
      << "a throttle that never lands must escalate toward kill";
  EXPECT_EQ(health.unrecoverable, 0u);
  EXPECT_FALSE(run.sys->is_live(run.pid))
      << "escalated kill uses the termination channel and must land";
  EXPECT_EQ(run.sys->exit_reason(run.pid), sim::ExitReason::kKilled);
  EXPECT_EQ(run.engine->pending_retries(), 0u);
}

TEST(FaultPlane, TotalActuatorLossIsBoundedByTheKillRetryCap) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  FaultPlane plane(0xdead2);
  plane.actuator.transient_rate = 1.0;  // EVERY command fails, kills too

  const ActuatorRun run = run_attack_with_faults(
      detector, plane, {.escalate_after = 2, .max_kill_retries = 4}, 300,
      core::ValkyrieConfig{.required_measurements = 100000});
  const ValkyrieEngine::FaultHealth health = run.engine->fault_health();
  EXPECT_GT(health.escalations, 0u);
  EXPECT_GE(health.unrecoverable, 1u)
      << "a kill that fails past the cap must be declared unrecoverable";
  EXPECT_TRUE(run.sys->is_live(run.pid))
      << "with a dead control channel the process survives — degraded, "
         "not aborted";
  // The failed campaign is dropped, not retried forever: backoff is
  // exponential and the unrecoverable drop empties the ladder (the policy
  // may later re-issue, re-entering the ladder — pending is small, not
  // monotonically growing).
  EXPECT_LE(run.engine->pending_retries(), 1u);
}

TEST(FaultPlane, TransientFailuresRetryAndEventuallyLand) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  FaultPlane plane(0x7ea1);
  plane.actuator.transient_rate = 0.5;  // flaky, not dead

  const ActuatorRun run = run_attack_with_faults(detector, plane, {}, 200);
  const ValkyrieEngine::FaultHealth health = run.engine->fault_health();
  EXPECT_GT(health.actuator_failures, 0u);
  EXPECT_GT(health.retries, 0u);
  EXPECT_FALSE(run.sys->is_live(run.pid))
      << "a 50%-flaky channel still terminates the attack via retries";
}

TEST(FaultPlane, FaultFreeRunIsUntouchedByAnArmedIdlePlane) {
  // Arming a zero-rate plane must not change a single bit of the run:
  // the fast paths stay engaged and the health ledger stays zero.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  FaultPlane idle(0x1d1e);

  auto run = [&detector, &idle](bool armed) {
    sim::SimSystem sys;
    ValkyrieEngine engine(sys, detector, 2);
    if (armed) engine.arm_faults(&idle);
    for (int i = 0; i < 6; ++i) {
      sys.spawn(std::make_unique<SigWorkload>(
          i % 3 == 1 ? attack_signature() : benign_signature(), i % 3 == 1));
      engine.attach(static_cast<sim::ProcessId>(i), core::ValkyrieConfig{},
                    std::make_unique<core::CgroupCpuActuator>());
    }
    for (int i = 0; i < 80; ++i) engine.step();
    std::vector<double> state;
    for (sim::ProcessId pid = 0; pid < 6; ++pid) {
      state.push_back(engine.is_attached(pid) ? engine.monitor(pid).threat()
                                              : -1.0);
      state.push_back(sys.is_live(pid)
                          ? sys.workload(pid).total_progress()
                          : static_cast<double>(sys.exit_reason(pid)));
    }
    return std::make_pair(state, engine.fault_health());
  };

  const auto [baseline, baseline_health] = run(false);
  const auto [armed, armed_health] = run(true);
  EXPECT_EQ(baseline, armed);
  EXPECT_EQ(armed_health.coasted, 0u);
  EXPECT_EQ(armed_health.blind, 0u);
  EXPECT_EQ(armed_health.detector_faults, 0u);
  EXPECT_EQ(armed_health.sanitized, 0u);
  EXPECT_EQ(armed_health.actuator_failures, 0u);
  EXPECT_EQ(armed_health.batch_fallbacks, 0u);
}

}  // namespace
}  // namespace valkyrie::fault
