#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "alloc_hooks.hpp"
#include "hpc/hpc.hpp"
#include "ml/dataset.hpp"
#include "ml/detector.hpp"
#include "ml/gbt.hpp"
#include "ml/mlp.hpp"
#include "ml/svm.hpp"
#include "ml/window_accumulator.hpp"
#include "util/rng.hpp"

namespace valkyrie::ml {
namespace {

hpc::HpcSample random_sample(util::Rng& rng) {
  hpc::HpcSample s;
  for (double& c : s.counts) {
    // Log-uniform counts spanning nine orders of magnitude: the worst
    // realistic conditioning for the running-variance recurrences.
    c = std::exp(rng.uniform(0.0, 21.0));
  }
  return s;
}

// The streaming summary must reproduce the batch two-pass aggregate to
// 1e-9 — Welford against textbook mean/stddev — over randomized windows
// spanning 1 to 10k samples.
TEST(WindowAccumulator, MatchesBatchWindowFeatures) {
  util::Rng rng(0xacc);
  for (int round = 0; round < 12; ++round) {
    const std::size_t len = 1 + rng.below(round < 8 ? 1000 : 10000);
    std::vector<hpc::HpcSample> window;
    window.reserve(len);
    WindowAccumulator acc;
    for (std::size_t i = 0; i < len; ++i) {
      window.push_back(random_sample(rng));
      acc.add(window.back());
    }
    const std::vector<double> batch =
        window_features({window.data(), window.size()});
    const auto streamed = acc.summary().features();
    ASSERT_EQ(batch.size(), streamed.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_NEAR(batch[i], streamed[i], 1e-9)
          << "round " << round << " len " << len << " feature " << i;
    }
  }
}

TEST(WindowAccumulator, MatchesBatchAfterReset) {
  util::Rng rng(0xe5e7);
  WindowAccumulator acc;
  // Pollute with one episode, reset, and check the next episode is exact.
  for (int i = 0; i < 500; ++i) acc.add(random_sample(rng));
  acc.reset();
  EXPECT_EQ(acc.count(), 0u);

  std::vector<hpc::HpcSample> window;
  for (int i = 0; i < 777; ++i) {
    window.push_back(random_sample(rng));
    acc.add(window.back());
  }
  const std::vector<double> batch =
      window_features({window.data(), window.size()});
  const auto streamed = acc.summary().features();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NEAR(batch[i], streamed[i], 1e-9) << "feature " << i;
  }
}

TEST(WindowAccumulator, EmptySummaryIsZeroCount) {
  const WindowAccumulator acc;
  const WindowSummary summary = acc.summary();
  EXPECT_EQ(summary.count, 0u);
  for (const double v : summary.features()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(WindowAccumulator, NewestFeaturesTrackLastSample) {
  util::Rng rng(0x11);
  WindowAccumulator acc;
  hpc::HpcSample last;
  for (int i = 0; i < 10; ++i) {
    last = random_sample(rng);
    acc.add(last);
  }
  const hpc::FeatureVec expected = hpc::to_features(last);
  const WindowSummary summary = acc.summary();
  for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) {
    EXPECT_DOUBLE_EQ(summary.newest[i], expected[i]);
  }
}

// Masked (partial-plane) folds through random resets: a feature whose bit
// is set contributes nothing to the statistics and exposes the frozen
// running mean as its newest value, so each feature's statistics equal the
// batch statistics over exactly its unmasked values. The plane column the
// accumulator stores carries the summary's bits, and a state()/restore()
// copy continues bit-identically.
TEST(WindowAccumulator, MaskedFoldMatchesPerFeatureBatchStats) {
  util::Rng rng(0xf01d);
  WindowAccumulator acc;
  std::array<std::vector<double>, hpc::kFeatureDim> unmasked;
  const auto random_step = [&rng](hpc::FeatureVec& features) {
    for (double& x : features) x = rng.uniform(-8.0, 25.0);
    return rng.chance(0.3) ? static_cast<std::uint32_t>(
                                 rng.below(1u << hpc::kFeatureDim))
                           : 0u;
  };
  for (int epoch = 0; epoch < 400; ++epoch) {
    if (epoch > 0 && rng.chance(0.03)) {
      acc.reset();
      for (std::vector<double>& v : unmasked) v.clear();
    }
    hpc::FeatureVec features;
    const std::uint32_t mask = random_step(features);
    const WindowSummary before = acc.summary();
    acc.add_features_masked(features, mask);
    const WindowSummary s = acc.summary();
    ASSERT_EQ(s.stale_mask, mask);

    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      if (mask & (1u << f)) {
        EXPECT_EQ(s.newest[f], before.mean[f]) << "epoch " << epoch;
        EXPECT_EQ(s.mean[f], before.mean[f]) << "masked mean must freeze";
      } else {
        unmasked[f].push_back(features[f]);
        EXPECT_EQ(s.newest[f], features[f]) << "epoch " << epoch;
      }
      const std::vector<double>& xs = unmasked[f];
      ASSERT_EQ(acc.feature_count(f), xs.size()) << "feature " << f;
      if (xs.empty()) {
        EXPECT_EQ(s.stddev[f], 0.0);
        continue;
      }
      double mean = 0.0;
      for (const double x : xs) mean += x;
      mean /= static_cast<double>(xs.size());
      double var = 0.0;
      for (const double x : xs) var += (x - mean) * (x - mean);
      var /= static_cast<double>(xs.size());
      EXPECT_NEAR(s.mean[f], mean, 1e-9) << "epoch " << epoch << " f " << f;
      EXPECT_NEAR(s.stddev[f], std::sqrt(var), 1e-9)
          << "epoch " << epoch << " f " << f;
    }

    hpc::FeatureVec newest_col;
    hpc::FeatureVec mean_col;
    hpc::FeatureVec stddev_col;
    acc.store_plane_column(newest_col.data(), mean_col.data(),
                           stddev_col.data(), 1);
    EXPECT_EQ(newest_col, s.newest);
    if (s.count > 0) {
      EXPECT_EQ(mean_col, s.mean);
      EXPECT_EQ(stddev_col, s.stddev);
    }
  }

  WindowAccumulator copy;
  copy.restore(acc.state());
  for (int i = 0; i < 50; ++i) {
    hpc::FeatureVec features;
    const std::uint32_t mask = random_step(features);
    acc.add_features_masked(features, mask);
    copy.add_features_masked(features, mask);
  }
  const WindowAccumulator::State a = acc.state();
  const WindowAccumulator::State b = copy.state();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.m2, b.m2);
  EXPECT_EQ(a.newest, b.newest);
  EXPECT_EQ(a.fcount, b.fcount);
  EXPECT_EQ(a.newest_mask, b.newest_mask);
}

// The per-epoch streaming path — fold a sample, assemble the summary, run
// a summary-capable detector — must not touch the heap at all.
TEST(WindowAccumulator, StreamingHotPathDoesNotAllocate) {
  util::Rng rng(0xa110c);
  std::vector<hpc::HpcSample> samples;
  for (int i = 0; i < 64; ++i) samples.push_back(random_sample(rng));
  WindowAccumulator acc;
  acc.add(samples[0]);  // warm up

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  double checksum = 0.0;
  for (int i = 1; i < 64; ++i) {
    acc.add(samples[static_cast<std::size_t>(i)]);
    const WindowSummary summary = acc.summary();
    checksum += summary.features()[0] + summary.newest[1];
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "streaming feature path allocated";
  EXPECT_TRUE(std::isfinite(checksum));
}

// --- Streaming inference equivalence -----------------------------------------
//
// The StreamingInference running-vote path must agree epoch for epoch with
// the legacy recompute-the-whole-window path, for every detector family
// that exposes vote structure and for the summary-capable MLP.

hpc::HpcSample draw(util::Rng& rng, bool malicious) {
  hpc::HpcSample s;
  s[hpc::Event::kInstructions] =
      std::max(0.0, rng.normal(malicious ? 4e7 : 3e8, 2e7));
  s[hpc::Event::kCycles] = std::max(0.0, rng.normal(3.5e8, 1e7));
  s[hpc::Event::kLlcMisses] =
      std::max(0.0, rng.normal(malicious ? 4e7 : 4e5, malicious ? 4e6 : 8e4));
  s[hpc::Event::kMemBandwidth] =
      std::max(0.0, rng.normal(malicious ? 2e9 : 5e7, malicious ? 2e8 : 1e7));
  return s;
}

TraceSet make_corpus(int per_class, int trace_len, std::uint64_t seed) {
  util::Rng rng(seed);
  TraceSet set;
  for (int label = 0; label < 2; ++label) {
    for (int t = 0; t < per_class; ++t) {
      LabeledTrace trace;
      trace.malicious = label == 1;
      for (int i = 0; i < trace_len; ++i) {
        trace.samples.push_back(draw(rng, trace.malicious));
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

void expect_streaming_matches_batch(const Detector& detector,
                                    double noise_blend) {
  // A drifting window (benign samples with an increasing chance of attack
  // samples) exercises votes flipping in both directions.
  util::Rng rng(0x77);
  WindowAccumulator acc;
  StreamingInference stream;
  std::vector<hpc::HpcSample> window;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const bool attack_epoch =
        rng.chance(noise_blend * static_cast<double>(epoch) / 400.0);
    window.push_back(draw(rng, attack_epoch));
    acc.add(window.back());
    const WindowSummary summary =
        acc.summary({window.data(), window.size()});
    const Inference batch = detector.infer({window.data(), window.size()});
    const Inference streamed = stream.infer(detector, summary);
    ASSERT_EQ(batch, streamed) << detector.name() << " epoch " << epoch;
  }
}

TEST(StreamingInference, SvmMatchesWholeWindowVote) {
  const SvmDetector det = SvmDetector::make(make_corpus(10, 20, 1), 2);
  expect_streaming_matches_batch(det, 0.9);
}

TEST(StreamingInference, GbtMatchesWholeWindowVote) {
  const GbtDetector det = GbtDetector::make(make_corpus(10, 20, 3));
  expect_streaming_matches_batch(det, 0.9);
}

TEST(StreamingInference, CatchesUpWhenAttachedMidRun) {
  const SvmDetector det = SvmDetector::make(make_corpus(10, 20, 4), 5);
  util::Rng rng(0x99);
  WindowAccumulator acc;
  std::vector<hpc::HpcSample> window;
  for (int i = 0; i < 150; ++i) {
    window.push_back(draw(rng, i % 3 == 0));
    acc.add(window.back());
  }
  // Fresh streaming state pointed at a 150-deep window: must fold all
  // uncounted measurements, not just the newest.
  StreamingInference stream;
  const WindowSummary summary = acc.summary({window.data(), window.size()});
  EXPECT_EQ(stream.infer(det, summary),
            det.infer({window.data(), window.size()}));
}

TEST(StreamingInference, MlpSummaryInferenceDoesNotAllocate) {
  const MlpDetector det =
      MlpDetector::make_small_ann(make_corpus(8, 20, 9), 10);
  util::Rng rng(0xdead);
  WindowAccumulator acc;
  acc.add(draw(rng, false));
  (void)det.infer(acc.summary());  // warm up

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  int malicious = 0;
  for (int epoch = 0; epoch < 64; ++epoch) {
    acc.add(draw(rng, false));
    malicious += det.infer(acc.summary()) == Inference::kMalicious;
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "summary inference allocated";
  EXPECT_LE(malicious, 64);
}

TEST(StreamingInference, MlpSummaryMatchesBatchWindow) {
  const MlpDetector det =
      MlpDetector::make_small_ann(make_corpus(10, 25, 6), 7);
  // Streaming summary inference and batch whole-window inference follow
  // the same aggregate features, so decisions agree along a whole run.
  util::Rng rng(0xab);
  WindowAccumulator acc;
  std::vector<hpc::HpcSample> window;
  int agree = 0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    window.push_back(draw(rng, epoch > 120));
    acc.add(window.back());
    const Inference batch = det.infer({window.data(), window.size()});
    const Inference streamed =
        det.infer(acc.summary());  // never touches the raw window
    agree += batch == streamed;
  }
  EXPECT_EQ(agree, 200);
}

}  // namespace
}  // namespace valkyrie::ml
