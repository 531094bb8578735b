// The "simple statistical detector" used by the micro-architectural,
// rowhammer and cryptominer case studies (paper §VI, similar to HexPADS
// [Payer 2016]): diagonal-Gaussian models of the benign population and of
// the known attack signatures. An epoch is classified malicious when its
// feature vector sits measurably closer (in per-feature z-distance) to the
// attack population than to the benign one — the statistical analogue of
// HexPADS' per-counter attack-pattern thresholds. With benign examples
// only, it degrades to a pure anomaly detector (worst per-counter z).
//
// The paper deliberately pairs Valkyrie with this deliberately-simple
// detector because its higher false-positive frequency stresses the response
// framework (§VI-A: it flags ~4% of SPEC epochs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/detector.hpp"

namespace valkyrie::ml {

struct StatDetectorConfig {
  /// Score above which an epoch is malicious. Deployments calibrate this
  /// to a target benign false-positive rate (calibrate_stat_threshold).
  double threshold = 0.0;
  /// Number of most recent measurements to vote over (1 = newest only,
  /// which is what lets falsely-flagged benign processes recover quickly).
  std::size_t vote_window = 1;
  /// Attack-signature clusters: the malicious population is multi-modal
  /// (cache spies, hammers, miners, lockers), so the signature library is
  /// a small k-means mixture rather than one Gaussian.
  std::size_t attack_clusters = 10;
  /// The benign population is just as multi-modal (compute kernels,
  /// memory-bound code, graphics, streaming), so it gets a mixture too;
  /// a single pooled Gaussian would swallow every attack inside its
  /// cross-class variance.
  std::size_t benign_clusters = 8;
  /// Fraction of window votes that must be malicious for a malicious
  /// inference. The default simple majority fits the per-epoch view; the
  /// accumulated (terminable-decision) view uses a supermajority, because
  /// termination should require *clear* evidence, not a 50.1% coin flip.
  double vote_fraction = 0.5;
};

class StatisticalDetector final : public Detector {
 public:
  explicit StatisticalDetector(StatDetectorConfig config = {});

  /// Learns the benign feature distribution, and — when malicious examples
  /// are present — the attack-signature distribution as well.
  void fit(std::span<const Example> examples);

  // vote_window == kWholeWindow (Detector::kWholeWindow) votes over the
  // entire accumulated window: the terminable-decision view.

  [[nodiscard]] std::string_view name() const override {
    return "statistical";
  }
  [[nodiscard]] Inference infer(
      std::span<const hpc::HpcSample> window) const override;
  /// Streaming path: with the default newest-only vote (vote_window == 1)
  /// the decision depends solely on the latest measurement's features,
  /// which the summary carries — O(1) per epoch, no raw-window access.
  [[nodiscard]] Inference infer(const WindowSummary& summary) const override;
  /// The whole-window view classifies each measurement independently and
  /// compares the malicious fraction, so callers may keep running counts.
  [[nodiscard]] std::optional<double> vote_fraction() const override {
    if (config_.vote_window == kWholeWindow) return config_.vote_fraction;
    return std::nullopt;
  }
  [[nodiscard]] bool measurement_vote(
      std::span<const double> features) const override {
    return score(features) > config_.threshold;
  }
  /// Batch votes: scores_plane() thresholded exactly like the scalar vote.
  void measurement_votes(const FeatureMatrixView& batch,
                         std::span<std::uint8_t> out) const override;
  /// Batch path for the default newest-only vote (vote_window == 1): one
  /// scores_plane() sweep over the newest-measurement rows. Other window
  /// configurations take the scalar loop through the default adapter.
  void infer_batch(const SummaryMatrixView& batch,
                   std::span<Inference> out) const override;
  /// Newest-only voting (the default) and the whole-window vote structure
  /// both consume only the newest-measurement rows on the batch route; any
  /// other vote_window votes over the raw window (no batch kernel: served
  /// per slot).
  [[nodiscard]] PlaneSections plane_sections() const override {
    return config_.vote_window == 1 || config_.vote_window == kWholeWindow
               ? PlaneSections::kNewestOnly
               : PlaneSections::kFull;
  }
  /// Only a finite multi-sample vote reads raw samples: its newest
  /// vote_window. The newest-only vote reads the summary's newest features
  /// and the whole-window vote folds running counts.
  [[nodiscard]] std::size_t raw_window() const override {
    return config_.vote_window > 1 && config_.vote_window < kWholeWindow
               ? config_.vote_window
               : 0;
  }

  /// Detection score (exposed for calibration and tests). With an attack
  /// model: benign-z minus attack-z, so positive means closer to the
  /// attack signatures. Without one: worst per-counter benign z-distance.
  [[nodiscard]] double score(std::span<const double> features) const;

  /// Batch score over a feature-major matrix (feature f of item c at
  /// features[f * stride + c]): out[c] = score(column c) bit-identically.
  /// Cluster loops run outermost so each Gaussian's parameters stay hot
  /// while the per-feature inner loops stream unit-stride across columns.
  void scores_plane(const double* features, std::size_t stride, std::size_t n,
                    double* out) const;

  [[nodiscard]] bool has_attack_model() const noexcept {
    return !attack_models_.empty();
  }
  [[nodiscard]] std::size_t attack_model_count() const noexcept {
    return attack_models_.size();
  }

  [[nodiscard]] bool trained() const noexcept { return !mean_.empty(); }
  [[nodiscard]] const StatDetectorConfig& config() const noexcept {
    return config_;
  }

  void set_threshold(double threshold) noexcept {
    config_.threshold = threshold;
    refresh_hash();
  }
  void set_vote_window(std::size_t window) noexcept {
    config_.vote_window = window;
    refresh_hash();
  }

  /// Fingerprint of the models and of what turns scores into verdicts
  /// (threshold, vote window and fraction). Kept current by every member
  /// that changes one of them, so a capture reads it for free.
  [[nodiscard]] std::uint64_t state_hash() const override { return hash_; }

  /// A copy of this detector that majority-votes over the *entire*
  /// accumulated window — the high-efficacy view used for the terminable
  /// decision at N* measurements (what Fig. 1 evaluates for SVM/XGBoost).
  [[nodiscard]] StatisticalDetector accumulated_view() const {
    StatisticalDetector view = *this;
    view.config_.vote_window = kWholeWindow;
    view.config_.vote_fraction = 0.8;
    view.refresh_hash();
    return view;
  }

 private:
  struct Gaussian {
    std::vector<double> mean;
    std::vector<double> stddev;
  };

  /// k-means + per-cluster diagonal Gaussians over one class's examples.
  [[nodiscard]] static std::vector<Gaussian> cluster_gaussians(
      const std::vector<const std::vector<double>*>& rows, std::size_t max_k);

  void refresh_hash() noexcept;

  StatDetectorConfig config_;
  std::vector<double> mean_;    // pooled benign model (anomaly fallback)
  std::vector<double> stddev_;
  std::vector<Gaussian> benign_models_;
  std::vector<Gaussian> attack_models_;
  std::uint64_t hash_ = 0;
};

}  // namespace valkyrie::ml
