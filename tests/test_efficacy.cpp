#include <gtest/gtest.h>

#include "core/efficacy.hpp"
#include "util/rng.hpp"

namespace valkyrie::core {
namespace {

using ml::Inference;

/// Noisy per-measurement detector with majority voting: per-measurement
/// accuracy p, so window-level accuracy grows with window size — a clean
/// analytic stand-in for the Fig. 1 models.
class NoisyMajorityDetector final : public ml::Detector {
 public:
  explicit NoisyMajorityDetector(double per_measurement_accuracy)
      : p_(per_measurement_accuracy) {}

  [[nodiscard]] std::string_view name() const override { return "noisy"; }
  [[nodiscard]] Inference infer(
      std::span<const hpc::HpcSample> window) const override {
    // The sample's instruction count encodes the (hidden) truth; each
    // measurement is read correctly with probability p, and the window
    // majority decides. Deterministic per measurement via a seed derived
    // from the sample content.
    std::size_t malicious_votes = 0;
    for (const hpc::HpcSample& s : window) {
      const bool truly_malicious = s[hpc::Event::kInstructions] < 50.0;
      const auto h = static_cast<std::uint64_t>(
          s[hpc::Event::kCycles] * 1e3);
      std::uint64_t state = h;
      const double u = static_cast<double>(util::splitmix64(state) >> 11) *
                       0x1.0p-53;
      const bool read_correctly = u < p_;
      if (truly_malicious == read_correctly) ++malicious_votes;
    }
    return 2 * malicious_votes > window.size() ? Inference::kMalicious
                                               : Inference::kBenign;
  }

 private:
  double p_;
};

ml::TraceSet synthetic_traces(int per_class, int len, std::uint64_t seed) {
  util::Rng rng(seed);
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    for (int t = 0; t < per_class; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name = "t" + std::to_string(label) + "-" + std::to_string(t);
      for (int i = 0; i < len; ++i) {
        hpc::HpcSample s;
        s[hpc::Event::kInstructions] = trace.malicious ? 10.0 : 100.0;
        s[hpc::Event::kCycles] = rng.uniform(0.0, 1e6);  // randomness source
        trace.samples.push_back(s);
      }
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

TEST(Efficacy, CurveImprovesWithMeasurements) {
  const NoisyMajorityDetector detector(0.7);
  const ml::TraceSet traces = synthetic_traces(60, 60, 1);
  const EfficacyCurve curve = compute_efficacy_curve(detector, traces, 60);
  ASSERT_EQ(curve.points().size(), 60u);
  // F1 with 1 measurement ~ per-measurement accuracy; with 59 it should be
  // near-perfect (binomial concentration). FPR mirrors it downwards.
  const EfficacyPoint& first = curve.points().front();
  const EfficacyPoint& last = curve.points().back();
  EXPECT_LT(first.f1, 0.85);
  EXPECT_GT(last.f1, 0.97);
  EXPECT_GT(first.fpr, 0.1);
  EXPECT_LT(last.fpr, 0.03);
}

TEST(Efficacy, RequiredMeasurementsForF1Spec) {
  const NoisyMajorityDetector detector(0.7);
  const ml::TraceSet traces = synthetic_traces(60, 60, 2);
  const EfficacyCurve curve = compute_efficacy_curve(detector, traces, 60);
  EfficacySpec spec;
  spec.min_f1 = 0.9;
  const auto n = curve.required_measurements(spec);
  ASSERT_TRUE(n.has_value());
  EXPECT_GT(*n, 1u);
  EXPECT_LT(*n, 60u);
  // The returned point indeed satisfies the spec.
  for (const EfficacyPoint& p : curve.points()) {
    if (p.measurements == *n) {
      EXPECT_GE(p.f1, 0.9);
    }
  }
}

TEST(Efficacy, RequiredMeasurementsForFprSpec) {
  const NoisyMajorityDetector detector(0.7);
  const ml::TraceSet traces = synthetic_traces(60, 60, 3);
  const EfficacyCurve curve = compute_efficacy_curve(detector, traces, 60);
  EfficacySpec spec;
  spec.max_fpr = 0.05;
  const auto n = curve.required_measurements(spec);
  ASSERT_TRUE(n.has_value());
  EfficacySpec both;
  both.max_fpr = 0.05;
  both.min_f1 = 0.9;
  const auto n_both = curve.required_measurements(both);
  ASSERT_TRUE(n_both.has_value());
  EXPECT_GE(*n_both, *n);  // joint spec can only need more evidence
}

TEST(Efficacy, UnreachableSpecIsNullopt) {
  const NoisyMajorityDetector detector(0.55);
  const ml::TraceSet traces = synthetic_traces(20, 10, 4);
  const EfficacyCurve curve = compute_efficacy_curve(detector, traces, 10);
  EfficacySpec spec;
  spec.min_f1 = 0.9999;
  spec.max_fpr = 0.0;
  EXPECT_FALSE(curve.required_measurements(spec).has_value());
}

TEST(Efficacy, EmptySpecSatisfiedImmediately) {
  const NoisyMajorityDetector detector(0.7);
  const ml::TraceSet traces = synthetic_traces(10, 5, 5);
  const EfficacyCurve curve = compute_efficacy_curve(detector, traces, 5);
  const auto n = curve.required_measurements(EfficacySpec{});
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1u);
}

TEST(Efficacy, StrideSkipsPoints) {
  const NoisyMajorityDetector detector(0.7);
  const ml::TraceSet traces = synthetic_traces(10, 20, 6);
  const EfficacyCurve curve =
      compute_efficacy_curve(detector, traces, 20, /*stride=*/5);
  ASSERT_EQ(curve.points().size(), 4u);
  EXPECT_EQ(curve.points()[0].measurements, 1u);
  EXPECT_EQ(curve.points()[1].measurements, 6u);
}

TEST(Efficacy, ShortTracesAreSkippedAtLargeN) {
  const NoisyMajorityDetector detector(0.9);
  ml::TraceSet traces = synthetic_traces(10, 5, 7);
  const EfficacyCurve curve = compute_efficacy_curve(detector, traces, 10);
  // Points beyond the trace length have no data at all.
  EXPECT_EQ(curve.points()[7].confusion.total(), 0u);
}

}  // namespace
}  // namespace valkyrie::core
