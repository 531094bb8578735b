// snapshot_diff: field-level comparison of two engine snapshots.
//
//   ./build/examples/snapshot_diff a.vlky b.vlky   diff two snapshot files
//   ./build/examples/snapshot_diff                 self-contained demo
//
// The demo runs a churn campaign, snapshots it mid-flight, restores a
// SECOND engine from the bytes (different worker count) and
// races both to the same epoch: diff() comes back empty, which is the
// restore determinism contract made visible. It then keeps the original
// running one epoch longer and prints the first few fields that drift —
// the same view you would use to localize divergence after a real crash
// recovery.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/traces.hpp"
#include "core/valkyrie.hpp"
#include "ml/stat_detector.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/snapshotter.hpp"
#include "workloads/benchmarks.hpp"

using namespace valkyrie;

namespace {

std::vector<std::uint8_t> read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "snapshot_diff: cannot open %s\n", path);
    std::exit(2);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

int print_diff(const snapshot::SnapshotImage& a,
               const snapshot::SnapshotImage& b, std::size_t limit) {
  const std::vector<snapshot::FieldDiff> diffs = snapshot::diff(a, b);
  if (diffs.empty()) {
    std::printf("snapshots are bit-identical (0 differing fields)\n");
    return 0;
  }
  std::printf("snapshots differ in %zu field%s:\n", diffs.size(),
              diffs.size() == 1 ? "" : "s");
  for (std::size_t i = 0; i < diffs.size() && i < limit; ++i) {
    std::printf("  %-48s %s  ->  %s\n", diffs[i].path.c_str(),
                diffs[i].lhs.c_str(), diffs[i].rhs.c_str());
  }
  if (diffs.size() > limit) {
    std::printf("  ... and %zu more\n", diffs.size() - limit);
  }
  return 1;
}

ml::StatisticalDetector demo_detector() {
  std::vector<core::WorkloadFactory> corpus;
  for (const auto& spec : workloads::spec2006()) {
    corpus.push_back([spec] {
      return std::make_unique<workloads::BenchmarkWorkload>(spec);
    });
  }
  const ml::TraceSet traces = core::collect_traces(corpus, 30);
  ml::StatisticalDetector detector;
  detector.fit(ml::flatten(traces));
  return detector;
}

int run_demo() {
  const ml::StatisticalDetector detector = demo_detector();

  sim::ScenarioScript script;
  script.seed = 0xd1ff;
  script.initial_processes = 10;
  script.arrival_rate = 0.3;
  script.attack_fraction = 0.2;
  script.mean_lifetime = 50.0;
  script.campaigns = {{40, 4, 12, sim::AttackFamily::kCryptominer}};

  // Original run: snapshot at epoch 80 (off-thread encode via Snapshotter,
  // exactly as a production checkpoint loop would).
  sim::SimSystem sys;
  core::ValkyrieEngine engine(sys, detector, /*worker_threads=*/2);
  sim::ScenarioDriver driver(engine, script);

  std::vector<std::uint8_t> checkpoint;
  snapshot::Snapshotter snapshotter(
      [&checkpoint](std::vector<std::uint8_t> bytes) {
        checkpoint = std::move(bytes);
      });
  for (int epoch = 0; epoch < 80; ++epoch) driver.step();
  snapshotter.request(driver);
  snapshotter.flush();
  std::printf("checkpoint at epoch %llu: %zu bytes\n",
              static_cast<unsigned long long>(sys.current_epoch()),
              checkpoint.size());

  // Recovery: a fresh engine with a DIFFERENT run configuration (8 workers)
  // restored from the checkpoint bytes.
  const snapshot::SnapshotImage image = snapshot::parse(checkpoint);
  sim::SimSystem sys2;
  core::ValkyrieEngine engine2(sys2, detector, /*worker_threads=*/8);
  snapshot::restore(image, engine2, snapshot::RestoreContext{});
  sim::ScenarioDriver restored(engine2, script, image.driver);

  // Race both to epoch 140 and compare field by field.
  for (int epoch = 0; epoch < 60; ++epoch) {
    driver.step();
    restored.step();
  }
  std::printf("\nepoch %llu, original (2 workers) vs restored (8 workers):\n",
              static_cast<unsigned long long>(sys.current_epoch()));
  print_diff(snapshot::capture(driver), snapshot::capture(restored), 12);

  // Let the original drift one epoch ahead: diff() localizes the skew.
  driver.step();
  std::printf("\nafter one extra epoch on the original only:\n");
  print_diff(snapshot::capture(driver), snapshot::capture(restored), 12);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3) {
    try {
      const std::vector<std::uint8_t> a = read_file(argv[1]);
      const std::vector<std::uint8_t> b = read_file(argv[2]);
      return print_diff(snapshot::parse(a), snapshot::parse(b), 40);
    } catch (const snapshot::SnapshotError& e) {
      std::fprintf(stderr, "snapshot_diff: %s\n", e.what());
      return 2;
    }
  }
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s [a.vlky b.vlky]\n", argv[0]);
    return 2;
  }
  return run_demo();
}
