// Long Short-Term Memory classifier over HPC time series — the paper's
// ransomware detector (§VI-C): an LSTM whose final hidden state feeds a
// dense sigmoid output. Trained from scratch with backpropagation through
// time and Adam; no external ML dependency.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/detector.hpp"
#include "util/rng.hpp"

namespace valkyrie::util {
class ByteWriter;
class ByteReader;
}  // namespace valkyrie::util

namespace valkyrie::ml {

struct LstmConfig {
  std::size_t input_dim = hpc::kFeatureDim;
  std::size_t hidden_dim = 8;  // the paper's hidden layer of 8 nodes
};

struct LstmTrainOptions {
  int epochs = 30;
  double learning_rate = 0.01;  // Adam step size
  /// BPTT window: sequences longer than this are truncated to their tail.
  std::size_t max_bptt_steps = 48;
  /// Prefix sequences sampled per trace each epoch, so the model learns to
  /// classify short windows too.
  int prefixes_per_trace = 4;
  double grad_clip_norm = 1.0;
  std::uint64_t seed = 0x157a;
};

class Lstm {
 public:
  explicit Lstm(LstmConfig config = {}, std::uint64_t seed = 0xbeef);

  /// Probability that the sequence (oldest first) is malicious.
  [[nodiscard]] double predict(
      std::span<const std::vector<double>> sequence) const;

  void train(const TraceSet& train_set, const LstmTrainOptions& options);

  [[nodiscard]] const LstmConfig& config() const noexcept { return config_; }

  /// The recurrence's carried state (hidden + cell vectors), exposed so a
  /// snapshot can freeze an inference mid-sequence and resume it
  /// bit-identically. Advancing a StreamState through stream_step() runs
  /// exactly the arithmetic predict() runs internally (one shared cell
  /// routine), so batch and streaming evaluation agree to the last bit.
  struct StreamState {
    std::vector<double> h;
    std::vector<double> c;
    std::uint64_t steps = 0;
  };

  [[nodiscard]] StreamState stream_begin() const;

  /// Feeds one RAW feature vector (the fitted scaler is applied inside,
  /// mirroring predict()). Throws std::invalid_argument on a dimension or
  /// state-size mismatch.
  void stream_step(StreamState& state, std::span<const double> features) const;

  /// Probability under the current carried state; 0.0 before any step,
  /// matching predict() on an empty sequence.
  [[nodiscard]] double stream_prob(const StreamState& state) const;

  /// Serializes a carried recurrence state (h, c, step count) bit-exactly.
  static void stream_save(const StreamState& state, util::ByteWriter& out);
  [[nodiscard]] static StreamState stream_load(util::ByteReader& in);

  /// Full model serialization: dims, fitted scaler, parameters and Adam
  /// state — a loaded model trains on and infers bit-identically.
  void snapshot_save(util::ByteWriter& out) const;
  [[nodiscard]] static Lstm snapshot_load(util::ByteReader& in);

  /// FNV-1a over the parameter and scaler bits — the compatibility
  /// fingerprint LstmDetector::state_hash() records in snapshots.
  [[nodiscard]] std::uint64_t param_hash() const noexcept;

 private:
  struct ForwardState;

  /// One LSTM cell step shared by forward() and stream_step(): gate
  /// pre-activations into `gates`, activations into gi/gf/gg/go, then the
  /// c/h update — one code path, so the two evaluation styles cannot
  /// drift apart numerically.
  void advance_cell(std::span<const double> x, std::vector<double>& h,
                    std::vector<double>& c, std::vector<double>& gates,
                    std::vector<double>& gi, std::vector<double>& gf,
                    std::vector<double>& gg, std::vector<double>& go) const;

  /// Dense sigmoid head over a hidden state.
  [[nodiscard]] double output_prob(std::span<const double> h) const;

  /// Runs the recurrence, optionally recording per-step state for BPTT.
  double forward(std::span<const std::vector<double>> sequence,
                 ForwardState* record) const;

  /// Accumulates gradients for one (sequence, label) pair; returns loss.
  double backward(std::span<const std::vector<double>> sequence, double target,
                  double sample_weight, std::vector<double>& grad) const;

  [[nodiscard]] std::size_t param_count() const noexcept;

  LstmConfig config_;
  /// Input standardisation fitted during train(); raw log1p counts would
  /// saturate the gates otherwise.
  FeatureScaler scaler_;
  // Flat parameter vector: [W (4H x (D+H)), b (4H), w_out (H), b_out (1)].
  // Gate order within the 4H block: input, forget, cell, output.
  std::vector<double> params_;
  // Adam state.
  std::vector<double> adam_m_;
  std::vector<double> adam_v_;
  std::uint64_t adam_t_ = 0;
};

/// Detector adapter: converts the HPC window to feature sequences.
class LstmDetector final : public Detector {
 public:
  explicit LstmDetector(Lstm model) : model_(std::move(model)) {}

  /// Inference feeds at most the newest kMaxSteps measurements: long
  /// windows carry no extra signal once the hidden state saturates, and
  /// this bounds inference cost.
  static constexpr std::size_t kMaxSteps = 64;

  [[nodiscard]] std::string_view name() const override { return "lstm"; }
  using Detector::infer;  // keep infer(WindowSummary) visible
  [[nodiscard]] Inference infer(
      std::span<const hpc::HpcSample> window) const override;
  [[nodiscard]] std::size_t raw_window() const override { return kMaxSteps; }

  [[nodiscard]] const Lstm& model() const noexcept { return model_; }

  /// Folds the trained parameter bits into the snapshot fingerprint: a
  /// retrained model refuses to resume another model's snapshot.
  [[nodiscard]] std::uint64_t state_hash() const override;

  [[nodiscard]] static LstmDetector make(const TraceSet& train,
                                         std::uint64_t seed,
                                         LstmTrainOptions options = {});

 private:
  Lstm model_;
};

}  // namespace valkyrie::ml
