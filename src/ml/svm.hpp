// Linear support vector machine trained with Pegasos-style stochastic
// subgradient descent on the hinge loss (the paper's SVM detector, similar
// to NIGHTs-WATCH [Mushtaq 2018] / SUNDEW [Karapoola 2024]).
//
// Per the paper (§IV-A): "the SVM and XGBoost models classify each
// measurement individually and infer program behavior based on the
// classification of majority of these measurements" — so the detector
// adapter majority-votes over the accumulated window, which is what makes
// its efficacy grow with measurement count.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/detector.hpp"

namespace valkyrie::ml {

struct SvmTrainOptions {
  int epochs = 30;
  /// Pegasos regularisation parameter.
  double lambda = 1e-4;
  std::uint64_t seed = 0x5f3759df;
};

class LinearSvm {
 public:
  LinearSvm() = default;

  /// Decision value w.x + b (positive = malicious side).
  [[nodiscard]] double decision(std::span<const double> features) const;

  void train(std::vector<Example> examples, const SvmTrainOptions& options);

  [[nodiscard]] bool trained() const noexcept { return !weights_.empty(); }
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] double bias() const noexcept { return bias_; }

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// Majority-vote detector over per-measurement SVM decisions.
class SvmDetector final : public Detector {
 public:
  explicit SvmDetector(LinearSvm svm);

  [[nodiscard]] std::string_view name() const override { return "svm"; }
  using Detector::infer;  // keep infer(WindowSummary) visible
  [[nodiscard]] Inference infer(
      std::span<const hpc::HpcSample> window) const override;
  /// Per-measurement vote structure (paper §IV-A): simple majority over
  /// individual measurement classifications. Lets callers keep running
  /// counts and infer in O(1) per epoch via StreamingInference.
  [[nodiscard]] std::optional<double> vote_fraction() const override {
    return 0.5;
  }
  [[nodiscard]] bool measurement_vote(
      std::span<const double> features) const override {
    return svm_.decision(features) > 0.0;
  }
  /// Batch votes: one weights-row-by-matrix sweep — acc[c] starts at the
  /// bias and each feature row is folded with a unit-stride pass across the
  /// columns, preserving the scalar decision()'s ascending-feature
  /// accumulation order bit-for-bit.
  void measurement_votes(const FeatureMatrixView& batch,
                         std::span<std::uint8_t> out) const override;
  /// Vote-based: a batched driver only ever feeds this detector the
  /// newest-measurement rows.
  [[nodiscard]] PlaneSections plane_sections() const override {
    return PlaneSections::kNewestOnly;
  }

  /// Fingerprint of the name, the weights and the bias, computed at
  /// construction.
  [[nodiscard]] std::uint64_t state_hash() const override { return hash_; }

  [[nodiscard]] const LinearSvm& model() const noexcept { return svm_; }

  [[nodiscard]] static SvmDetector make(const TraceSet& train,
                                        std::uint64_t seed);

 private:
  LinearSvm svm_;
  std::uint64_t hash_ = 0;
};

}  // namespace valkyrie::ml
