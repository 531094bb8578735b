// Chaos determinism cross-check: the full degraded-mode stack in one run.
//
// An open churn population with faults armed on all three planes —
// per-feature sensor corruption, correlated domain burst outages, a
// throwing/lying detector, flaky actuators — supervised through two
// injected crashes, one of which finds its latest checkpoint corrupted
// and must fall back to the previous generation. Every schedule in the
// run is a pure hash of its seeds, so the final snapshot bytes are a
// deterministic function of this file, whatever the engine's worker count:
// run the binary twice, or at two worker counts, and byte-compare the
// outputs to prove it (CI does both).
//
//   ./build/chaos_replay out.snap [workers]   # workers defaults to 2
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/supervisor.hpp"
#include "core/valkyrie.hpp"
#include "fault/fault_plane.hpp"
#include "ml/svm.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/snapshotter.hpp"
#include "util/rng.hpp"

using namespace valkyrie;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "chaos_final.snap";
  const long workers = argc > 2 ? std::strtol(argv[2], nullptr, 10) : 2;
  if (workers < 1 || workers > 64) {
    std::fprintf(stderr, "workers must be in [1, 64]\n");
    return 1;
  }

  const ml::SvmDetector inner = ml::SvmDetector::make(training_corpus(), 3);

  fault::FaultPlane plane(0xc4a05);
  plane.sensor = {.dropout_rate = 0.005,
                  .stuck_rate = 0.003,
                  .nan_rate = 0.002,
                  .saturate_rate = 0.002};
  plane.sensor.feature_fraction = 0.4;  // most corruption hits single columns
  plane.detector = {.throw_rate = 0.01, .garbage_rate = 0.01};
  plane.actuator = {.transient_rate = 0.05, .permanent_rate = 0.02};
  plane.domains = {.domain_count = 4,
                   .node_width = 8,
                   .sensor_outage_rate = 0.015,
                   .actuator_outage_rate = 0.01,
                   .mean_outage_epochs = 5.0};
  const fault::FaultyDetector detector(inner, plane);

  const auto factory =
      [&detector, &plane, workers](const snapshot::SnapshotImage* image)
      -> core::SupervisedWorld {
    core::SupervisedWorld world;
    world.system = std::make_unique<sim::SimSystem>();
    world.engine = std::make_unique<core::ValkyrieEngine>(
        *world.system, detector, static_cast<std::size_t>(workers));
    world.engine->arm_faults(&plane);
    if (image == nullptr) {
      world.driver = std::make_unique<sim::ScenarioDriver>(*world.engine,
                                                           churn_script());
    } else {
      snapshot::restore(*image, *world.engine, snapshot::RestoreContext{});
      world.driver = std::make_unique<sim::ScenarioDriver>(
          *world.engine, churn_script(), image->driver);
    }
    return world;
  };

  core::SupervisedEngine::Config config;
  config.checkpoint_interval = 32;
  config.crash_epochs = {123, 277};
  config.corrupt_checkpoint_epochs = {256};  // crash 277 must fall back
  core::SupervisedEngine supervisor(factory, config);
  supervisor.run(300);

  const core::SupervisedEngine::Health health = supervisor.health();
  const core::ValkyrieEngine::FaultHealth faults =
      supervisor.engine().fault_health();
  std::printf(
      "campaign: 300 epochs, %llu recoveries (%llu fallback), "
      "%llu epochs replayed (worst %llu)\n",
      static_cast<unsigned long long>(health.recoveries),
      static_cast<unsigned long long>(health.fallback_recoveries),
      static_cast<unsigned long long>(health.epochs_replayed),
      static_cast<unsigned long long>(health.worst_replay));
  std::printf(
      "degraded inference: %llu masked, %llu coasted, %llu blind, "
      "%llu detector faults contained, %llu actuator failures\n",
      static_cast<unsigned long long>(faults.masked),
      static_cast<unsigned long long>(faults.coasted),
      static_cast<unsigned long long>(faults.blind),
      static_cast<unsigned long long>(faults.detector_faults),
      static_cast<unsigned long long>(faults.actuator_failures));
  if (health.recoveries != 2 || health.fallback_recoveries != 1) {
    std::fprintf(stderr, "unexpected recovery shape\n");
    return 1;
  }

  const std::vector<std::uint8_t> bytes =
      snapshot::encode(snapshot::capture(*supervisor.driver()));
  std::FILE* f = std::fopen(out_path, "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  std::printf("wrote %zu snapshot bytes to %s\n", bytes.size(), out_path);
  return 0;
}
