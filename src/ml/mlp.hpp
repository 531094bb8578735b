// Feed-forward neural network (the paper's "small ANN": one hidden layer of
// 4 nodes; "large ANN": two hidden layers of 8 nodes) trained with SGD on
// binary cross-entropy. Inputs are the fixed-size window aggregate features,
// so the same network serves any measurement-window length — efficacy grows
// with window size because the aggregates concentrate (paper Fig. 1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/detector.hpp"
#include "util/rng.hpp"

namespace valkyrie::ml {

struct MlpTrainOptions {
  int epochs = 60;
  double learning_rate = 0.05;
  double momentum = 0.9;
  std::uint64_t seed = 0x31337;
};

/// Fully connected network with tanh hidden activations and a sigmoid
/// output. Layer sizes include input and output, e.g. {24, 4, 1}.
class Mlp {
 public:
  explicit Mlp(std::vector<std::size_t> layer_sizes,
               std::uint64_t seed = 0xabcd);

  /// Probability the input is malicious, in (0, 1). Allocation-free for
  /// networks whose widest layer fits the stack scratch buffer (all of the
  /// paper's architectures do).
  [[nodiscard]] double predict(std::span<const double> input) const;

  /// Batch predict over a feature-major input matrix: input feature f of
  /// batch item c sits at input[f * stride + c]; writes out[c] =
  /// predict(column c) for c in [0, n), bit-identically (each (neuron,
  /// column) sum accumulates in the same ascending-input order as the
  /// scalar path). Blocked GEMV kernel: columns are processed in blocks
  /// with 4-neuron register tiles, so the inner loops run unit-stride
  /// across columns and vectorize. Allocation-free under the same
  /// widest-layer condition as predict(); wider networks fall back to
  /// per-column predict().
  ///
  /// When scale_mean/scale_inv are given (length = input dim), each input
  /// is standardised on the fly as (x - scale_mean[f]) * scale_inv[f]
  /// while the layer-0 tiles read it — the FeatureScaler transform fused
  /// into the GEMV, so the input matrix is swept exactly once and the
  /// arithmetic (and therefore every bit) matches transform-then-predict.
  void predict_batch(const double* input, std::size_t stride, std::size_t n,
                     double* out, const double* scale_mean = nullptr,
                     const double* scale_inv = nullptr) const;

  /// SGD training on shuffled examples with class re-weighting so an
  /// imbalanced trace mix still trains both classes.
  void train(std::vector<Example> examples, const MlpTrainOptions& options);

  [[nodiscard]] const std::vector<std::size_t>& layer_sizes() const noexcept {
    return sizes_;
  }

  /// Folds every layer's weights and biases (not the momentum buffers)
  /// into an FNV-1a hash that starts from `seed`.
  [[nodiscard]] std::uint64_t param_hash(std::uint64_t seed) const noexcept;

 private:
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<double> weights;  // out x in, row-major
    std::vector<double> bias;     // out
    std::vector<double> w_vel;    // momentum buffers
    std::vector<double> b_vel;
  };

  /// Forward pass storing activations per layer (for backprop).
  [[nodiscard]] std::vector<std::vector<double>> forward(
      std::span<const double> input) const;

  std::vector<std::size_t> sizes_;
  std::vector<Layer> layers_;
};

/// Detector adapter: window aggregate features -> standardise -> MLP ->
/// threshold at 0.5.
class MlpDetector final : public Detector {
 public:
  MlpDetector(std::string name, Mlp mlp, FeatureScaler scaler);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] Inference infer(
      std::span<const hpc::HpcSample> window) const override;
  /// Streaming path: consumes the running mean/stddev aggregates directly —
  /// O(kWindowFeatureDim) per epoch, no allocations, never touches the raw
  /// window.
  [[nodiscard]] Inference infer(const WindowSummary& summary) const override;
  /// Batch path: reads the mean/stddev rows straight off the feature plane
  /// (no per-process WindowSummary assembly, no features() stack copy),
  /// fuses the standardisation into the column blocks and runs the blocked
  /// batch GEMV. Bit-identical to looping the streaming path.
  void infer_batch(const SummaryMatrixView& batch,
                   std::span<Inference> out) const override;
  /// The batch kernel consumes only the mean/stddev rows (and counts), so
  /// the engine skips the newest-feature stores — unless the geometry
  /// forces the scalar path (no batch kernel: served per slot).
  [[nodiscard]] PlaneSections plane_sections() const override {
    return mlp_.layer_sizes().front() == kWindowFeatureDim &&
                   scaler_.dim() == kWindowFeatureDim
               ? PlaneSections::kStatsOnly
               : PlaneSections::kFull;
  }
  /// infer(WindowSummary) reads only the running mean/stddev, in every
  /// geometry, so no raw sample is ever needed.
  [[nodiscard]] std::size_t raw_window() const override { return 0; }

  /// Fingerprint of the name, the layers' weights and biases and the
  /// scaler, computed at construction.
  [[nodiscard]] std::uint64_t state_hash() const override { return hash_; }

  [[nodiscard]] const Mlp& model() const noexcept { return mlp_; }

  /// Builds and trains the paper's small ANN (one hidden layer, 4 nodes)
  /// on whole-window aggregates of the given traces.
  [[nodiscard]] static MlpDetector make_small_ann(const TraceSet& train,
                                                  std::uint64_t seed);
  /// The paper's large ANN: two hidden layers of 8 nodes each.
  [[nodiscard]] static MlpDetector make_large_ann(const TraceSet& train,
                                                  std::uint64_t seed);

 private:
  std::string name_;
  Mlp mlp_;
  FeatureScaler scaler_;
  std::uint64_t hash_ = 0;
};

/// Builds window-aggregate training examples from traces: for each trace,
/// several prefixes of random length are aggregated, teaching the network
/// to classify windows of any size.
[[nodiscard]] std::vector<Example> make_window_examples(const TraceSet& set,
                                                        util::Rng& rng,
                                                        int prefixes_per_trace = 8);

}  // namespace valkyrie::ml
