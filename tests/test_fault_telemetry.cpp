// Non-finite telemetry through the feature pipeline. The sensor validator
// quarantines NaN/Inf/saturated samples before they reach any window state
// (tested in test_fault_plane.cpp), but the contract here is one layer
// deeper: IF garbage bits ever reach the accumulators or the batch kernels
// — an unarmed run, a future sensor kind the validator misses — every
// batch kernel must still produce EXACTLY the bits its scalar counterpart
// produces, so cross-mode bit-identity survives even poisoned inputs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ml/gbt.hpp"
#include "ml/mlp.hpp"
#include "ml/stat_detector.hpp"
#include "ml/svm.hpp"
#include "ml/window_accumulator.hpp"
#include "util/rng.hpp"

namespace valkyrie::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

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

TraceSet training_corpus() {
  util::Rng rng(0xc0ffee);
  TraceSet set;
  for (int label = 0; label < 2; ++label) {
    const hpc::HpcSignature sig =
        label == 1 ? attack_signature() : benign_signature();
    for (int t = 0; t < 8; ++t) {
      LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name =
          (trace.malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 25; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

/// Bitwise double equality: NaN == NaN (same payload), -0.0 != +0.0.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --- WindowAccumulator under non-finite samples ------------------------------

TEST(FaultTelemetry, AccumulatorPropagatesNaNDeterministically) {
  // A NaN sample poisons the running mean/m2 for its features — silently
  // classifying on it would be wrong, which is WHY the sensor validator
  // quarantines upstream. Here: the poisoning must be deterministic and
  // identical between the streaming summary and the stored plane columns
  // (what the batched engine reads).
  util::Rng rng(0x7e1e);
  const hpc::HpcSignature sig = benign_signature();

  WindowAccumulator acc;
  for (int i = 0; i < 4; ++i) acc.add(sig.sample(rng));
  hpc::HpcSample poisoned = sig.sample(rng);
  poisoned.counts[0] = kNaN;
  poisoned.counts[2] = kInf;
  acc.add(poisoned);

  const WindowSummary summary = acc.summary();
  EXPECT_EQ(summary.count, 5u);
  EXPECT_TRUE(std::isnan(summary.mean[0]));
  // log1p(inf) = inf; Welford mean through an inf sample goes NaN or inf
  // depending on the update order — the point is it is visibly non-finite.
  EXPECT_FALSE(std::isfinite(summary.mean[2]));
  // Stddev guard: var involving NaN fails `var > 0.0`, so the summary
  // reports 0.0 — same formula in store_stats_columns, so the plane column
  // must carry the same bits.
  std::array<double, hpc::kFeatureDim> newest_col;
  std::array<double, hpc::kFeatureDim> mean_col;
  std::array<double, hpc::kFeatureDim> stddev_col;
  acc.store_plane_column(newest_col.data(), mean_col.data(),
                         stddev_col.data(), 1);
  for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
    EXPECT_TRUE(same_bits(newest_col[f], summary.newest[f])) << f;
    EXPECT_TRUE(same_bits(mean_col[f], summary.mean[f])) << f;
    EXPECT_TRUE(same_bits(stddev_col[f], summary.stddev[f])) << f;
  }

  // Determinism: an identical accumulation replays to identical bits.
  util::Rng rng2(0x7e1e);
  WindowAccumulator acc2;
  for (int i = 0; i < 4; ++i) acc2.add(sig.sample(rng2));
  hpc::HpcSample poisoned2 = sig.sample(rng2);
  poisoned2.counts[0] = kNaN;
  poisoned2.counts[2] = kInf;
  acc2.add(poisoned2);
  const WindowSummary replay = acc2.summary();
  for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
    EXPECT_TRUE(same_bits(replay.mean[f], summary.mean[f])) << f;
    EXPECT_TRUE(same_bits(replay.stddev[f], summary.stddev[f])) << f;
    EXPECT_TRUE(same_bits(replay.newest[f], summary.newest[f])) << f;
  }
}

// --- Batch kernels vs scalar, poisoned columns -------------------------------

/// A feature-major batch whose columns mix clean, NaN-bearing and
/// Inf-bearing feature vectors, plus the matching per-column summaries.
struct PoisonedBatch {
  static constexpr std::size_t kCount = 24;
  std::vector<double> newest;  // kFeatureDim rows x kCount
  std::vector<double> mean;
  std::vector<double> stddev;
  std::vector<std::size_t> counts;

  [[nodiscard]] FeatureMatrixView features() const {
    return {newest.data(), kCount, kCount};
  }
  [[nodiscard]] SummaryMatrixView summaries() const {
    return {newest.data(), mean.data(), stddev.data(), counts.data(), kCount,
            kCount};
  }
};

PoisonedBatch make_poisoned_batch() {
  util::Rng rng(0xba7c4);
  PoisonedBatch batch;
  batch.newest.resize(hpc::kFeatureDim * PoisonedBatch::kCount);
  batch.mean.resize(hpc::kFeatureDim * PoisonedBatch::kCount);
  batch.stddev.resize(hpc::kFeatureDim * PoisonedBatch::kCount);
  batch.counts.resize(PoisonedBatch::kCount);
  const hpc::HpcSignature benign = benign_signature();
  const hpc::HpcSignature attack = attack_signature();
  for (std::size_t c = 0; c < PoisonedBatch::kCount; ++c) {
    WindowAccumulator acc;
    const hpc::HpcSignature& sig = c % 3 == 1 ? attack : benign;
    for (int i = 0; i < 6; ++i) {
      hpc::HpcSample sample = sig.sample(rng);
      // Poison a third of the columns mid-window: NaN or Inf in one or
      // two feature lanes, mirroring what an unvalidated sensor would do.
      if (c % 3 == 2 && i == 3) {
        sample.counts[c % hpc::kNumEvents] = c % 2 == 0 ? kNaN : kInf;
      }
      acc.add(sample);
    }
    const WindowSummary summary = acc.summary();
    batch.counts[c] = summary.count;
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      batch.newest[f * PoisonedBatch::kCount + c] = summary.newest[f];
      batch.mean[f * PoisonedBatch::kCount + c] = summary.mean[f];
      batch.stddev[f * PoisonedBatch::kCount + c] = summary.stddev[f];
    }
  }
  return batch;
}

/// Every vote kernel must agree bit-for-bit with its scalar path on the
/// poisoned batch (NaN comparisons are IEEE-ordered the same way in both).
void expect_votes_match_scalar(const Detector& detector,
                               const PoisonedBatch& batch) {
  ASSERT_TRUE(detector.vote_fraction().has_value());
  const FeatureMatrixView view = batch.features();
  std::vector<std::uint8_t> votes(PoisonedBatch::kCount, 0xcd);
  detector.measurement_votes(view, votes);
  std::array<double, hpc::kFeatureDim> column;
  for (std::size_t c = 0; c < PoisonedBatch::kCount; ++c) {
    view.gather(c, column);
    EXPECT_EQ(votes[c] != 0, detector.measurement_vote(column))
        << detector.name() << " column " << c;
  }
}

void expect_infer_batch_matches_scalar(const Detector& detector,
                                       const PoisonedBatch& batch) {
  const SummaryMatrixView view = batch.summaries();
  std::vector<Inference> batched(PoisonedBatch::kCount, Inference::kInvalid);
  detector.infer_batch(view, batched);
  for (std::size_t c = 0; c < PoisonedBatch::kCount; ++c) {
    EXPECT_EQ(batched[c], detector.infer(view.gather(c)))
        << detector.name() << " column " << c;
  }
}

TEST(FaultTelemetry, SvmVoteKernelMatchesScalarOnPoisonedColumns) {
  const SvmDetector detector = SvmDetector::make(training_corpus(), 3);
  expect_votes_match_scalar(detector, make_poisoned_batch());
}

TEST(FaultTelemetry, GbtVoteKernelMatchesScalarOnPoisonedColumns) {
  const GbtDetector detector = GbtDetector::make(training_corpus());
  expect_votes_match_scalar(detector, make_poisoned_batch());
}

TEST(FaultTelemetry, StatKernelsMatchScalarOnPoisonedColumns) {
  StatDetectorConfig config;
  config.vote_window = StatisticalDetector::kWholeWindow;
  StatisticalDetector detector(config);
  const std::vector<Example> examples = flatten(training_corpus());
  detector.fit(examples);
  const PoisonedBatch batch = make_poisoned_batch();
  if (detector.vote_fraction().has_value()) {
    expect_votes_match_scalar(detector, batch);
  }
  expect_infer_batch_matches_scalar(detector, batch);
}

TEST(FaultTelemetry, MlpInferBatchMatchesScalarOnPoisonedColumns) {
  const MlpDetector detector =
      MlpDetector::make_small_ann(training_corpus(), 0x5eed);
  expect_infer_batch_matches_scalar(detector, make_poisoned_batch());
}

TEST(FaultTelemetry, DefaultBatchAdaptersMatchScalarOnPoisonedColumns) {
  // The base-class adapters (gather + scalar call per column) are the
  // fallback every detector without a native kernel gets; they must hold
  // the same contract. The SVM's infer() path exercises the default
  // infer_batch adapter through real whole-window aggregate features.
  const SvmDetector detector = SvmDetector::make(training_corpus(), 3);
  expect_infer_batch_matches_scalar(detector, make_poisoned_batch());
}

}  // namespace
}  // namespace valkyrie::ml
