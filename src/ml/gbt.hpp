// Gradient-boosted decision trees on the logistic loss — the paper's
// "XGBoost ensemble" (as deployed in SUNDEW [Karapoola 2024]). Second-order
// boosting: each regression tree is fit to the gradient/hessian of the
// logistic loss, leaf values are -G/(H+lambda), exactly the XGBoost
// formulation with exact greedy splits (no histogram approximation; the
// datasets here are small).
//
// The split search is XGBoost's exact greedy algorithm over presorted
// columns (Chen & Guestrin 2016). Each feature column is sorted once per
// fit, ties in ascending example order. Each depth of a tree then walks every sorted column once: a
// node being split sees its own members in that order and scores the split
// between each pair of unequal neighbours. Node totals, and so leaf values,
// are summed over the node's members in the order std::partition leaves
// them.
//
// Tie rule: a left sum adds a run of equal values in ascending example
// order. The oracle in tests/test_ml.cpp std::sorts each node's examples
// per feature and adds them in introsort's order, so the two can round a
// left sum differently and, where two gains tie to the last bit, split
// differently; on the sets the tests pin they give the same trees.
//
// Like the SVM, the detector adapter classifies each measurement and
// majority-votes across the accumulated window.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/detector.hpp"

namespace valkyrie::ml {

struct GbtConfig {
  int num_trees = 25;
  int max_depth = 2;
  double learning_rate = 0.2;
  /// L2 regularisation on leaf values (XGBoost lambda).
  double lambda = 1.0;
  /// Minimum gain to keep a split (XGBoost gamma).
  double min_gain = 1e-4;
  /// Minimum examples per leaf.
  std::size_t min_leaf = 4;
};

class GradientBoostedTrees {
 public:
  explicit GradientBoostedTrees(GbtConfig config = {}) : config_(config) {}

  /// Fits the ensemble. There is one fit: examples are copied into a
  /// column image first.
  void train(const std::vector<Example>& examples);
  void train(const FeatureColumns& data);

  /// Raw additive score (log-odds); positive = malicious.
  [[nodiscard]] double predict_logit(std::span<const double> features) const;

  /// Batch logit over a feature-major matrix (feature f of item c at
  /// features[f * stride + c]): out[c] = predict_logit(column c),
  /// bit-identically (per-column tree sums run in the same tree order).
  /// The tree loop runs outermost so each tree's node array stays L1-hot
  /// across the whole batch, and traversal inside it is LAYERED: every
  /// column advances one level per pass through a flat-SoA node table
  /// whose leaves self-loop, so the per-column walk is a fixed-depth
  /// select chain (no data-dependent branches to mispredict on mixed
  /// benign/attack batches) with identical comparisons to the scalar walk.
  void predict_logit_plane(const double* features, std::size_t stride,
                           std::size_t n, double* out) const;

  /// Probability of malicious via sigmoid.
  [[nodiscard]] double predict(std::span<const double> features) const;

  [[nodiscard]] bool trained() const noexcept { return !trees_.empty(); }
  [[nodiscard]] std::size_t tree_count() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] const GbtConfig& config() const noexcept { return config_; }

  /// Fingerprint of the trained parameters: the base score, the learning
  /// rate and every node's feature, threshold, leaf value and children, in
  /// tree order. Computed once by train() (0 before), so
  /// GbtDetector::state_hash() costs nothing at capture.
  [[nodiscard]] std::uint64_t param_hash() const noexcept {
    return param_hash_;
  }

 private:
  /// Flat node storage: a node is a leaf when feature < 0.
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double leaf_value = 0.0;
    int left = -1;
    int right = -1;
  };
  using Tree = std::vector<Node>;

  /// Layered flat-SoA projection of one tree, built once at train() time
  /// for the plane kernel: parallel node arrays traversed a fixed `depth`
  /// steps with a branch-free select. Leaves self-loop — threshold is
  /// -inf, so `x < threshold` is false for every finite feature and the
  /// select always takes `right`, which points back at the leaf itself —
  /// letting shallow paths park on their leaf while deeper paths descend.
  struct FlatTree {
    std::vector<std::int32_t> feature;  // 0 for leaves (the read is benign)
    std::vector<double> threshold;      // -inf for leaves
    std::vector<std::int32_t> left;
    std::vector<std::int32_t> right;    // == self for leaves
    std::vector<double> value;          // leaf value (0.0 for split nodes)
    int depth = 0;                      // select steps to settle any column
  };

  /// One fit's presorted columns and per-round gradient state (gbt.cpp).
  struct Fit;
  /// Grows one tree depth by depth and adds its leaf values to the scores.
  [[nodiscard]] Tree fit_tree(Fit& fit) const;
  [[nodiscard]] static double tree_output(const Tree& tree,
                                          std::span<const double> features);
  void build_flat();

  GbtConfig config_;
  std::vector<Tree> trees_;
  std::vector<FlatTree> flat_;  // one per tree, same order
  double base_score_ = 0.0;
  /// True when every split feature fits the per-measurement feature
  /// vector, i.e. predict_logit_plane may use its gather tile. Fixed at
  /// train() time so the hot path never re-scans the ensemble.
  bool plane_tile_ok_ = false;
  std::uint64_t param_hash_ = 0;
};

class GbtDetector final : public Detector {
 public:
  explicit GbtDetector(GradientBoostedTrees model)
      : model_(std::move(model)) {}

  [[nodiscard]] std::string_view name() const override { return "xgboost"; }
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
    return model_.predict_logit(features) > 0.0;
  }
  /// Batch votes via predict_logit_plane (tree-outer traversal over the
  /// column block), thresholded at 0 exactly like the scalar vote.
  void measurement_votes(const FeatureMatrixView& batch,
                         std::span<std::uint8_t> out) const override;
  /// Vote-based: a batched driver only ever feeds this detector the
  /// newest-measurement rows.
  [[nodiscard]] PlaneSections plane_sections() const override {
    return PlaneSections::kNewestOnly;
  }

  /// The trained trees' fingerprint (GradientBoostedTrees::param_hash),
  /// so a snapshot refuses to restore against a retrained ensemble.
  [[nodiscard]] std::uint64_t state_hash() const override {
    return model_.param_hash();
  }

  [[nodiscard]] const GradientBoostedTrees& model() const noexcept {
    return model_;
  }

  [[nodiscard]] static GbtDetector make(const TraceSet& train,
                                        GbtConfig config = {});

 private:
  GradientBoostedTrees model_;
};

}  // namespace valkyrie::ml
