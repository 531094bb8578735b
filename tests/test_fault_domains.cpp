// Correlated fault domains + per-feature degraded inference.
//
// The domain layer adds Gilbert-Elliott burst outages that take a whole
// rack-like group of pids dark together; the per-feature layer quarantines
// individual sensor COLUMNS instead of whole samples. Both are pure
// functions of (seed, identity, epoch), so everything here is pinned
// exactly: burst membership replays bit-identically across worker counts,
// FaultHealth counters land on the same values everywhere,
// and per-feature degradation provably buys strictly fewer blind epochs
// than whole-sample quarantine under the identical fault schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/valkyrie.hpp"
#include "fault/fault_plane.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "sequential_loop.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"

namespace valkyrie::fault {
namespace {

using core::ValkyrieEngine;

ml::TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  hpc::HpcSignature benign;
  benign.at(hpc::Event::kInstructions) = 3e8;
  benign.at(hpc::Event::kCycles) = 3.5e8;
  benign.at(hpc::Event::kMemBandwidth) = 5e7;
  hpc::HpcSignature attack;
  attack.at(hpc::Event::kInstructions) = 4e7;
  attack.at(hpc::Event::kLlcMisses) = 4e7;
  attack.at(hpc::Event::kMemBandwidth) = 2e9;
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    for (int t = 0; t < 6; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name = std::to_string(label) + "-" + std::to_string(t);
      for (int i = 0; i < 25; ++i) {
        trace.samples.push_back((label == 1 ? attack : benign).sample(rng));
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

sim::ScenarioScript churn_script() {
  sim::ScenarioScript script;
  script.seed = 0x5ca1e;
  script.initial_processes = 12;
  script.arrival_rate = 0.4;
  script.attack_fraction = 0.15;
  script.attack_families = {sim::AttackFamily::kCryptominer,
                            sim::AttackFamily::kRansomware,
                            sim::AttackFamily::kExfiltrator};
  script.mean_lifetime = 60.0;
  script.kill_exit_fraction = 0.6;
  script.bursts = {{40, 4}, {170, 3}};
  script.campaigns = {{80, 6, 15, sim::AttackFamily::kRansomware},
                      {120, 5, 20, sim::AttackFamily::kCryptominer}};
  return script;
}

// --- The burst schedule as a pure function -----------------------------------

TEST(FaultDomains, PidsMapToDomainsByNodeWidth) {
  FaultPlane plane(0xd0f);
  plane.domains = {.domain_count = 4,
                   .node_width = 8,
                   .sensor_outage_rate = 0.05,
                   .actuator_outage_rate = 0.03,
                   .mean_outage_epochs = 6.0};
  EXPECT_EQ(plane.domain_of(0), 0u);
  EXPECT_EQ(plane.domain_of(7), 0u);
  EXPECT_EQ(plane.domain_of(8), 1u);
  EXPECT_EQ(plane.domain_of(31), 3u);
  EXPECT_EQ(plane.domain_of(32), 0u) << "domains wrap: pid 32 shares rack 0";
}

TEST(FaultDomains, OutagesAreCorrelatedAcrossADomainAndDeterministic) {
  FaultPlane plane(0xd0f);
  plane.domains = {.domain_count = 4,
                   .node_width = 8,
                   .sensor_outage_rate = 0.05,
                   .actuator_outage_rate = 0.03,
                   .mean_outage_epochs = 6.0};
  FaultPlane replay(0xd0f);
  replay.domains = plane.domains;
  FaultPlane other(0xd0e);
  other.domains = plane.domains;

  std::size_t dark = 0;
  std::size_t diverged = 0;
  bool saw_two_epoch_burst = false;
  bool prev_dark = false;
  for (std::uint64_t epoch = 0; epoch < 4000; ++epoch) {
    // Every pid in a domain shares the outage verdict — that is what makes
    // the fault CORRELATED rather than iid across processes.
    const bool d0 = plane.sensor_outage(epoch, 3);
    EXPECT_EQ(d0, plane.sensor_outage(epoch, 5)) << "epoch " << epoch;
    EXPECT_EQ(d0, plane.sensor_outage(epoch, 32 + 2)) << "epoch " << epoch;
    // And a pure function of (seed, domain, epoch): a second plane with
    // the same seed replays it exactly.
    EXPECT_EQ(d0, replay.sensor_outage(epoch, 3)) << "epoch " << epoch;
    if (d0 != other.sensor_outage(epoch, 3)) ++diverged;
    if (d0) {
      ++dark;
      if (prev_dark) saw_two_epoch_burst = true;
    }
    prev_dark = d0;
  }
  // Long-run dark fraction tracks the configured rate (mean dark dwell 6,
  // mean healthy dwell 6*(1-r)/r = 114 -> fraction ~0.05).
  EXPECT_GT(dark, 80u);
  EXPECT_LT(dark, 420u);
  EXPECT_TRUE(saw_two_epoch_burst)
      << "mean_outage_epochs=6 must produce multi-epoch bursts, not blips";
  EXPECT_GT(diverged, 0u) << "a different seed must draw a different schedule";

  // The sensor and actuator schedules are independent streams: the same
  // domain must not go dark on both planes in lockstep.
  std::size_t both = 0, either = 0;
  for (std::uint64_t epoch = 0; epoch < 4000; ++epoch) {
    const bool s = plane.sensor_outage(epoch, 0);
    const bool a = plane.actuator_outage(epoch, 0);
    both += (s && a) ? 1u : 0u;
    either += (s || a) ? 1u : 0u;
  }
  EXPECT_GT(either, 0u);
  EXPECT_LT(both, either) << "streams must not be the same schedule";
}

TEST(FaultDomains, VanishingOutageRateStaysHealthyWithoutOverflow) {
  // rate = 1e-300 passes validation ([0, 1)) but makes the derived healthy
  // dwell ~1e300 epochs; the draw must clamp before the uint64 cast (a
  // double >= 2^64 converted to uint64 is UB) and simply never go dark.
  FaultPlane plane(0xd0f);
  plane.domains = {.domain_count = 4,
                   .node_width = 8,
                   .sensor_outage_rate = 1e-300,
                   .actuator_outage_rate = 1e-300,
                   .mean_outage_epochs = 6.0};
  plane.validate();
  for (std::uint64_t epoch = 0; epoch < 500; ++epoch) {
    ASSERT_FALSE(plane.sensor_outage(epoch, 0));
    ASSERT_FALSE(plane.actuator_outage(epoch, 0));
  }
}

TEST(FaultDomains, ZeroRatesKeepTheBurstPathDisarmed) {
  FaultPlane plane(0xd0f);
  plane.domains = {.domain_count = 4,
                   .node_width = 8,
                   .sensor_outage_rate = 0.0,
                   .actuator_outage_rate = 0.0,
                   .mean_outage_epochs = 6.0};
  for (std::uint64_t epoch = 0; epoch < 500; ++epoch) {
    ASSERT_FALSE(plane.sensor_outage(epoch, 0));
    ASSERT_FALSE(plane.actuator_outage(epoch, 0));
  }
}

// --- Rate validation at arm time ---------------------------------------------

TEST(FaultDomains, InvalidRatesThrowAtArmTime) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);

  const auto arm = [&](const FaultPlane& plane) {
    sim::SimSystem sys;
    ValkyrieEngine engine(sys, detector, 1);
    engine.arm_faults(&plane);
  };

  FaultPlane negative(0x1);
  negative.sensor.dropout_rate = -0.1;
  EXPECT_THROW(arm(negative), std::invalid_argument);

  FaultPlane oversum(0x1);
  oversum.sensor = {.dropout_rate = 0.5, .stuck_rate = 0.4, .nan_rate = 0.2};
  EXPECT_THROW(arm(oversum), std::invalid_argument);

  FaultPlane fraction(0x1);
  fraction.sensor.stuck_rate = 0.1;
  fraction.sensor.feature_fraction = 0.0;  // must be in (0, 1]
  EXPECT_THROW(arm(fraction), std::invalid_argument);

  FaultPlane outage(0x1);
  outage.domains = {.domain_count = 2,
                    .node_width = 8,
                    .sensor_outage_rate = 1.5,
                    .actuator_outage_rate = 0.0,
                    .mean_outage_epochs = 6.0};
  EXPECT_THROW(arm(outage), std::invalid_argument);

  FaultPlane dwell(0x1);
  dwell.domains = {.domain_count = 2,
                   .node_width = 8,
                   .sensor_outage_rate = 0.1,
                   .actuator_outage_rate = 0.0,
                   .mean_outage_epochs = 0.5};  // sub-epoch dwell is a typo
  EXPECT_THROW(arm(dwell), std::invalid_argument);

  // A valid plane still arms (the validator must not reject good config).
  FaultPlane good(0x1);
  good.sensor = {.dropout_rate = 0.01, .stuck_rate = 0.01};
  good.sensor.feature_fraction = 0.5;
  good.domains = {.domain_count = 2,
                  .node_width = 8,
                  .sensor_outage_rate = 0.1,
                  .actuator_outage_rate = 0.05,
                  .mean_outage_epochs = 4.0};
  EXPECT_NO_THROW(arm(good));
}

// --- Engine integration: pinned counters, determinism, degraded wins ---------

struct RunResult {
  std::vector<std::uint8_t> bytes;
  ValkyrieEngine::FaultHealth health;
};

RunResult run_campaign(const ml::Detector& detector, const FaultPlane& plane,
                       std::size_t threads, std::size_t epochs) {
  sim::SimSystem sys;
  ValkyrieEngine engine(sys, detector, threads);
  engine.arm_faults(&plane);
  sim::ScenarioDriver driver(engine, churn_script());
  for (std::size_t i = 0; i < epochs; ++i) driver.step();
  return {snapshot::encode(snapshot::capture(driver)), engine.fault_health()};
}

/// Per-feature sensor faults at rates high enough to bite every few epochs,
/// plus domain bursts on both planes — the full new surface.
FaultPlane domain_plane() {
  FaultPlane plane(0xd033);
  plane.sensor = {.dropout_rate = 0.004,
                  .stuck_rate = 0.02,
                  .nan_rate = 0.01,
                  .saturate_rate = 0.006};
  plane.sensor.feature_fraction = 0.4;
  plane.actuator = {.transient_rate = 0.03, .permanent_rate = 0.01};
  plane.domains = {.domain_count = 4,
                   .node_width = 8,
                   .sensor_outage_rate = 0.02,
                   .actuator_outage_rate = 0.01,
                   .mean_outage_epochs = 5.0};
  return plane;
}

TEST(FaultDomains, PinnedCountersAndBitIdenticalBytesAcrossWorkers) {
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  const FaultPlane plane = domain_plane();
  constexpr std::size_t kEpochs = 200;

  const RunResult golden = run_campaign(detector, plane, 1, kEpochs);
  // The scripted schedule is a pure hash of (seed, identity, epoch), so
  // these are exact, not statistical. Any drift in the injection order,
  // the mask contract or the burst schedule moves at least one of them.
  EXPECT_GT(golden.health.masked, 0u)
      << "per-feature faults must produce partial-plane inferences";
  EXPECT_GT(golden.health.coasted, 0u) << "bursts must quarantine slots";
  EXPECT_GT(golden.health.actuator_failures, 0u);

  for (const std::size_t threads : {2u, 8u}) {
    const RunResult run = run_campaign(detector, plane, threads, kEpochs);
    const std::string where = std::to_string(threads) + " workers";
    EXPECT_EQ(run.bytes, golden.bytes) << where;
    // FaultHealth is part of the determinism contract too: the same
    // schedule must be OBSERVED identically, not just survived.
    EXPECT_EQ(run.health.coasted, golden.health.coasted) << where;
    EXPECT_EQ(run.health.blind, golden.health.blind) << where;
    EXPECT_EQ(run.health.masked, golden.health.masked) << where;
    EXPECT_EQ(run.health.actuator_failures, golden.health.actuator_failures)
        << where;
    EXPECT_EQ(run.health.retries, golden.health.retries) << where;
    EXPECT_EQ(run.health.escalations, golden.health.escalations) << where;
  }
}

TEST(FaultDomains, BatchRouteObservesFaultsLikeThePerSlotRoute) {
  // The batch route folds its batch results with guarded_infer's fault
  // accounting. Under the identical schedule it must land on the per-slot
  // route's bytes AND FaultHealth — for a vote (newest-only) detector and a
  // stats-only one alike.
  const ml::SvmDetector svm = ml::SvmDetector::make(training_corpus(), 3);
  const ml::MlpDetector mlp =
      ml::MlpDetector::make_small_ann(training_corpus(), 0x5eed);
  const FaultPlane plane = domain_plane();
  for (const ml::Detector* detector :
       {static_cast<const ml::Detector*>(&svm),
        static_cast<const ml::Detector*>(&mlp)}) {
    const std::string label(detector->name());
    const reference::PerSlotRoute per_slot(*detector);
    const RunResult want = run_campaign(per_slot, plane, 1, 200);
    const RunResult got = run_campaign(*detector, plane, 2, 200);
    EXPECT_GT(want.health.coasted, 0u) << label;
    EXPECT_GT(want.health.masked, 0u) << label;
    EXPECT_EQ(got.bytes, want.bytes) << label;
    EXPECT_EQ(got.health.coasted, want.health.coasted) << label;
    EXPECT_EQ(got.health.blind, want.health.blind) << label;
    EXPECT_EQ(got.health.masked, want.health.masked) << label;
    EXPECT_EQ(got.health.sanitized, want.health.sanitized) << label;
  }
}

TEST(FaultDomains, ScriptedScheduleLandsOnExactCounters) {
  // No domains, no dropout, no actuator noise: a pure per-feature schedule
  // whose every counter is pinned to the literal value the hash draws.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);
  FaultPlane plane(0x5c21);
  plane.sensor = {.stuck_rate = 0.05, .nan_rate = 0.03, .saturate_rate = 0.02};
  plane.sensor.feature_fraction = 0.4;

  const RunResult run = run_campaign(detector, plane, 1, 200);
  const RunResult again = run_campaign(detector, plane, 8, 200);
  EXPECT_EQ(run.bytes, again.bytes);

  EXPECT_EQ(run.health.masked, again.health.masked);
  EXPECT_EQ(run.health.coasted, again.health.coasted);
  EXPECT_EQ(run.health.blind, again.health.blind);

  // Pinned literals for this (seed, script) pair — a determinism tripwire.
  // Faults whose drawn mask includes the cycles column quarantine the whole
  // sample (cycles is every rate feature's denominator), so they land in
  // coasted rather than masked.
  EXPECT_EQ(run.health.masked, 474u);
  EXPECT_EQ(run.health.coasted, 83u);
  EXPECT_EQ(run.health.blind, 0u);
  EXPECT_EQ(run.health.detector_faults, 0u);
  EXPECT_EQ(run.health.actuator_failures, 0u);
}

TEST(FaultDomains, PerFeatureQuarantineBuysStrictlyFewerBlindEpochs) {
  // The acceptance inequality: the SAME fault schedule (same seed, same
  // iid partition — feature_fraction only changes how much of a faulted
  // sample is quarantined) must produce strictly fewer blind epochs when
  // single-column faults are repaired instead of quarantining the sample.
  const ml::SvmDetector detector = ml::SvmDetector::make(training_corpus(), 3);

  // Rates harsh enough that whole-sample quarantine builds streaks past the
  // staleness budget; feature_fraction low enough that most drawn masks
  // miss the cycles column (a cycles hit quarantines the whole sample in
  // BOTH modes, eroding the margin this test exists to pin).
  FaultPlane whole(0xb11d);
  whole.sensor = {.stuck_rate = 0.14, .nan_rate = 0.08, .saturate_rate = 0.04};

  FaultPlane partial(0xb11d);
  partial.sensor = whole.sensor;
  partial.sensor.feature_fraction = 0.25;

  const RunResult whole_run = run_campaign(detector, whole, 1, 400);
  const RunResult partial_run = run_campaign(detector, partial, 1, 400);

  EXPECT_EQ(whole_run.health.masked, 0u)
      << "whole-sample mode must never report a partial plane";
  EXPECT_GT(partial_run.health.masked, 0u);
  EXPECT_GT(whole_run.health.blind, 0u)
      << "rates must be harsh enough that whole-sample quarantine goes "
         "blind — otherwise the comparison is vacuous";
  EXPECT_LT(partial_run.health.blind, whole_run.health.blind)
      << "repairing single columns must beat discarding whole samples";
  EXPECT_LT(partial_run.health.coasted, whole_run.health.coasted)
      << "held columns keep samples committing, so fewer stale inferences";
}

}  // namespace
}  // namespace valkyrie::fault
