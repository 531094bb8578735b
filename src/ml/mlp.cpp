#include "ml/mlp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "util/serial.hpp"
#include "util/simd.hpp"

namespace valkyrie::ml {
namespace {

double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

Mlp::Mlp(std::vector<std::size_t> layer_sizes, std::uint64_t seed)
    : sizes_(std::move(layer_sizes)) {
  if (sizes_.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output layers");
  }
  if (sizes_.back() != 1) {
    throw std::invalid_argument("Mlp: binary classifier needs 1 output unit");
  }
  util::Rng rng(seed);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    Layer layer;
    layer.in = sizes_[l];
    layer.out = sizes_[l + 1];
    const double scale =
        std::sqrt(6.0 / static_cast<double>(layer.in + layer.out));
    layer.weights.resize(layer.in * layer.out);
    for (double& w : layer.weights) w = rng.uniform(-scale, scale);
    layer.bias.assign(layer.out, 0.0);
    layer.w_vel.assign(layer.weights.size(), 0.0);
    layer.b_vel.assign(layer.out, 0.0);
    layers_.push_back(std::move(layer));
  }
}

std::vector<std::vector<double>> Mlp::forward(
    std::span<const double> input) const {
  if (input.size() != sizes_.front()) {
    throw std::invalid_argument("Mlp: input dimension mismatch");
  }
  std::vector<std::vector<double>> acts;
  acts.emplace_back(input.begin(), input.end());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double> z(layer.out, 0.0);
    const std::vector<double>& prev = acts.back();
    for (std::size_t o = 0; o < layer.out; ++o) {
      double sum = layer.bias[o];
      const double* w_row = layer.weights.data() + o * layer.in;
      for (std::size_t i = 0; i < layer.in; ++i) sum += w_row[i] * prev[i];
      const bool is_output = (l + 1 == layers_.size());
      z[o] = is_output ? sigmoid(sum) : std::tanh(sum);
    }
    acts.push_back(std::move(z));
  }
  return acts;
}

double Mlp::predict(std::span<const double> input) const {
  if (input.size() != sizes_.front()) {
    throw std::invalid_argument("Mlp: input dimension mismatch");
  }
  // Inference needs no per-layer activation record; ping-pong between two
  // stack buffers instead so the per-epoch hot path never allocates.
  // (Networks wider than the scratch fall back to the allocating forward()
  // pass — none of the paper's architectures take that path.)
  constexpr std::size_t kStackWidth = 64;
  for (const std::size_t s : sizes_) {
    if (s > kStackWidth) return forward(input).back().front();
  }
  std::array<double, kStackWidth> buf_a;
  std::array<double, kStackWidth> buf_b;
  std::copy(input.begin(), input.end(), buf_a.begin());
  double* prev = buf_a.data();
  double* next = buf_b.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool is_output = (l + 1 == layers_.size());
    // Four neurons at a time: each neuron's sum still accumulates in the
    // exact i order above (bit-identical outputs), but the four dependency
    // chains interleave, so the serial FP-add latency that dominates a
    // single chain overlaps ~4x. This is the per-epoch inference hot path:
    // every monitored process pays one predict() per epoch.
    std::size_t o = 0;
    for (; o + 4 <= layer.out; o += 4) {
      double s0 = layer.bias[o];
      double s1 = layer.bias[o + 1];
      double s2 = layer.bias[o + 2];
      double s3 = layer.bias[o + 3];
      const double* w0 = layer.weights.data() + o * layer.in;
      const double* w1 = w0 + layer.in;
      const double* w2 = w1 + layer.in;
      const double* w3 = w2 + layer.in;
      for (std::size_t i = 0; i < layer.in; ++i) {
        const double p = prev[i];
        s0 += w0[i] * p;
        s1 += w1[i] * p;
        s2 += w2[i] * p;
        s3 += w3[i] * p;
      }
      if (is_output) {
        next[o] = sigmoid(s0);
        next[o + 1] = sigmoid(s1);
        next[o + 2] = sigmoid(s2);
        next[o + 3] = sigmoid(s3);
      } else {
        next[o] = std::tanh(s0);
        next[o + 1] = std::tanh(s1);
        next[o + 2] = std::tanh(s2);
        next[o + 3] = std::tanh(s3);
      }
    }
    for (; o < layer.out; ++o) {
      double sum = layer.bias[o];
      const double* w_row = layer.weights.data() + o * layer.in;
      for (std::size_t i = 0; i < layer.in; ++i) sum += w_row[i] * prev[i];
      next[o] = is_output ? sigmoid(sum) : std::tanh(sum);
    }
    std::swap(prev, next);
  }
  return prev[0];
}

VALKYRIE_TARGET_CLONES
void Mlp::predict_batch(const double* input, std::size_t stride, std::size_t n,
                        double* out, const double* scale_mean,
                        const double* scale_inv) const {
  constexpr std::size_t kStackWidth = 64;
  for (const std::size_t s : sizes_) {
    if (s > kStackWidth) {
      // Wider than the scratch buffers: gather (and standardise) each
      // column and take the scalar path (which itself falls back to the
      // allocating forward()).
      std::vector<double> column(sizes_.front());
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t f = 0; f < column.size(); ++f) {
          const double x = input[f * stride + c];
          column[f] =
              scale_mean != nullptr ? (x - scale_mean[f]) * scale_inv[f] : x;
        }
        out[c] = predict(column);
      }
      return;
    }
  }

  // Column blocks of 8 with 4-neuron register tiles: the c loops below are
  // unit-stride over a fixed-width block, so they vectorize, while each
  // (neuron, column) sum still accumulates in the exact ascending-i order
  // of the scalar path — the batch is a layout change, not a math change.
  // Layer 0 reads the input matrix in place (src_stride = the caller's row
  // stride); deeper layers ping-pong between two L1-resident blocks.
  constexpr std::size_t kBlock = 8;
  double buf_a[kStackWidth * kBlock];
  double buf_b[kStackWidth * kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t bw = std::min(kBlock, n - base);
    const double* src = input + base;
    std::size_t src_stride = stride;
    double* next = buf_a;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const bool is_output = (l + 1 == layers_.size());
      // Standardisation is fused into the layer-0 read: the scaled value
      // is computed exactly as FeatureScaler::transform would and then
      // consumed, so the plane rows are swept once with no scratch
      // round-trip and the bits still match transform-then-predict.
      const bool fuse_scale = l == 0 && scale_mean != nullptr;
      std::size_t o = 0;
      for (; o + 4 <= layer.out; o += 4) {
        double acc[4][kBlock];
        for (std::size_t j = 0; j < 4; ++j) {
          for (std::size_t c = 0; c < bw; ++c) acc[j][c] = layer.bias[o + j];
        }
        const double* w0 = layer.weights.data() + o * layer.in;
        const double* w1 = w0 + layer.in;
        const double* w2 = w1 + layer.in;
        const double* w3 = w2 + layer.in;
        for (std::size_t i = 0; i < layer.in; ++i) {
          const double* p = src + i * src_stride;
          const double c0 = w0[i];
          const double c1 = w1[i];
          const double c2 = w2[i];
          const double c3 = w3[i];
          if (fuse_scale) {
            const double m = scale_mean[i];
            const double v = scale_inv[i];
            for (std::size_t c = 0; c < bw; ++c) {
              const double pc = (p[c] - m) * v;
              acc[0][c] += c0 * pc;
              acc[1][c] += c1 * pc;
              acc[2][c] += c2 * pc;
              acc[3][c] += c3 * pc;
            }
          } else {
            for (std::size_t c = 0; c < bw; ++c) {
              const double pc = p[c];
              acc[0][c] += c0 * pc;
              acc[1][c] += c1 * pc;
              acc[2][c] += c2 * pc;
              acc[3][c] += c3 * pc;
            }
          }
        }
        for (std::size_t j = 0; j < 4; ++j) {
          double* row = next + (o + j) * kBlock;
          for (std::size_t c = 0; c < bw; ++c) {
            row[c] = is_output ? sigmoid(acc[j][c]) : std::tanh(acc[j][c]);
          }
        }
      }
      for (; o < layer.out; ++o) {
        double acc[kBlock];
        for (std::size_t c = 0; c < bw; ++c) acc[c] = layer.bias[o];
        const double* w_row = layer.weights.data() + o * layer.in;
        for (std::size_t i = 0; i < layer.in; ++i) {
          const double* p = src + i * src_stride;
          const double w = w_row[i];
          if (fuse_scale) {
            const double m = scale_mean[i];
            const double v = scale_inv[i];
            for (std::size_t c = 0; c < bw; ++c) {
              acc[c] += w * ((p[c] - m) * v);
            }
          } else {
            for (std::size_t c = 0; c < bw; ++c) acc[c] += w * p[c];
          }
        }
        double* row = next + o * kBlock;
        for (std::size_t c = 0; c < bw; ++c) {
          row[c] = is_output ? sigmoid(acc[c]) : std::tanh(acc[c]);
        }
      }
      src = next;
      src_stride = kBlock;
      next = next == buf_a ? buf_b : buf_a;
    }
    for (std::size_t c = 0; c < bw; ++c) out[base + c] = src[c];
  }
}

void Mlp::train(std::vector<Example> examples, const MlpTrainOptions& options) {
  if (examples.empty()) {
    throw std::invalid_argument("Mlp::train: empty dataset");
  }
  // Class weights balance the loss when one class dominates the trace mix.
  const auto n_pos = static_cast<double>(
      std::count_if(examples.begin(), examples.end(),
                    [](const Example& e) { return e.malicious; }));
  const auto n_total = static_cast<double>(examples.size());
  const double n_neg = n_total - n_pos;
  if (n_pos == 0.0 || n_neg == 0.0) {
    throw std::invalid_argument("Mlp::train: need both classes");
  }
  const double w_pos = n_total / (2.0 * n_pos);
  const double w_neg = n_total / (2.0 * n_neg);

  util::Rng rng(options.seed);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    shuffle(examples, rng);
    for (const Example& ex : examples) {
      const std::vector<std::vector<double>> acts = forward(ex.features);
      const double target = ex.malicious ? 1.0 : 0.0;
      const double class_weight = ex.malicious ? w_pos : w_neg;

      // Output delta for sigmoid + binary cross-entropy: (p - y).
      std::vector<double> delta{(acts.back().front() - target) * class_weight};

      for (std::size_t li = layers_.size(); li-- > 0;) {
        Layer& layer = layers_[li];
        const std::vector<double>& input_act = acts[li];
        // Delta for the previous layer (before this layer's update).
        std::vector<double> prev_delta;
        if (li > 0) {
          prev_delta.assign(layer.in, 0.0);
          for (std::size_t o = 0; o < layer.out; ++o) {
            const double* w_row = layer.weights.data() + o * layer.in;
            for (std::size_t i = 0; i < layer.in; ++i) {
              prev_delta[i] += w_row[i] * delta[o];
            }
          }
          // tanh'(z) = 1 - a^2 where a is the activation.
          for (std::size_t i = 0; i < layer.in; ++i) {
            prev_delta[i] *= (1.0 - input_act[i] * input_act[i]);
          }
        }
        for (std::size_t o = 0; o < layer.out; ++o) {
          double* w_row = layer.weights.data() + o * layer.in;
          double* v_row = layer.w_vel.data() + o * layer.in;
          for (std::size_t i = 0; i < layer.in; ++i) {
            const double grad = delta[o] * input_act[i];
            v_row[i] = options.momentum * v_row[i] -
                       options.learning_rate * grad;
            w_row[i] += v_row[i];
          }
          layer.b_vel[o] =
              options.momentum * layer.b_vel[o] - options.learning_rate * delta[o];
          layer.bias[o] += layer.b_vel[o];
        }
        delta = std::move(prev_delta);
      }
    }
  }
}

std::uint64_t Mlp::param_hash(std::uint64_t seed) const noexcept {
  std::uint64_t h = seed;
  for (const Layer& layer : layers_) {
    h = util::fnv1a(layer.weights, h);
    h = util::fnv1a(layer.bias, h);
  }
  return h;
}

MlpDetector::MlpDetector(std::string name, Mlp mlp, FeatureScaler scaler)
    : name_(std::move(name)),
      mlp_(std::move(mlp)),
      scaler_(std::move(scaler)) {
  hash_ = mlp_.param_hash(util::fnv1a(name_));
  hash_ = util::fnv1a(scaler_.means(), hash_);
  hash_ = util::fnv1a(scaler_.inv_stddevs(), hash_);
}

Inference MlpDetector::infer(std::span<const hpc::HpcSample> window) const {
  if (window.empty()) return Inference::kBenign;
  const std::vector<double> features = window_features(window);
  std::array<double, kWindowFeatureDim> scaled;
  scaler_.transform(features, scaled);
  return mlp_.predict(scaled) > 0.5 ? Inference::kMalicious
                                    : Inference::kBenign;
}

Inference MlpDetector::infer(const WindowSummary& summary) const {
  if (summary.count == 0) return Inference::kBenign;
  std::array<double, kWindowFeatureDim> features = summary.features();
  scaler_.transform(features, features);  // standardise in place
  return mlp_.predict(features) > 0.5 ? Inference::kMalicious
                                      : Inference::kBenign;
}

namespace {

/// Classify loop behind MlpDetector::infer_batch, as a free function
/// because GCC cannot multiversion virtual members. The mean and stddev
/// row groups of the plane are contiguous ([mean rows][stddev rows], the
/// layout SimSystem maintains), so the concatenated kWindowFeatureDim x
/// stride matrix feeds predict_batch directly with the standardisation
/// fused into its layer-0 sweep — no per-process features() copy, no
/// scaling scratch, one pass over the plane rows.
VALKYRIE_TARGET_CLONES
void mlp_infer_batch_kernel(const Mlp& mlp, const double* s_mean,
                            const double* s_inv,
                            const SummaryMatrixView& batch, Inference* out) {
  constexpr std::size_t kCols = 256;
  double prob[kCols];
  for (std::size_t base = 0; base < batch.count; base += kCols) {
    const std::size_t bw = std::min(kCols, batch.count - base);
    mlp.predict_batch(batch.mean + base, batch.stride, bw, prob, s_mean,
                      s_inv);
    for (std::size_t c = 0; c < bw; ++c) {
      out[base + c] = batch.counts[base + c] != 0 && prob[c] > 0.5
                          ? Inference::kMalicious
                          : Inference::kBenign;
    }
  }
}

}  // namespace

void MlpDetector::infer_batch(const SummaryMatrixView& batch,
                              std::span<Inference> out) const {
  if (mlp_.layer_sizes().front() != kWindowFeatureDim ||
      scaler_.dim() != kWindowFeatureDim ||
      batch.stddev != batch.mean + hpc::kFeatureDim * batch.stride) {
    // Unusual geometry or non-adjacent mean/stddev row groups: the scalar
    // loop keeps the bit-equality promise without the fused kernel.
    Detector::infer_batch(batch, out);
    return;
  }
  mlp_infer_batch_kernel(mlp_, scaler_.means().data(),
                         scaler_.inv_stddevs().data(), batch, out.data());
}

std::vector<Example> make_window_examples(const TraceSet& set, util::Rng& rng,
                                          int prefixes_per_trace) {
  std::vector<Example> out;
  for (const LabeledTrace& trace : set.traces) {
    if (trace.samples.empty()) continue;
    for (int k = 0; k < prefixes_per_trace; ++k) {
      const std::size_t len = 1 + rng.below(trace.samples.size());
      const std::span<const hpc::HpcSample> prefix(trace.samples.data(), len);
      out.push_back({window_features(prefix), trace.malicious});
    }
  }
  return out;
}

namespace {

/// Shared training pipeline: window examples -> scaler -> SGD.
MlpDetector train_ann(std::string name, std::vector<std::size_t> layers,
                      const TraceSet& train, std::uint64_t seed,
                      MlpTrainOptions options) {
  util::Rng rng(seed);
  std::vector<Example> examples = make_window_examples(train, rng);
  std::vector<std::vector<double>> raw;
  raw.reserve(examples.size());
  for (const Example& ex : examples) raw.push_back(ex.features);
  FeatureScaler scaler;
  scaler.fit(raw);
  for (Example& ex : examples) ex.features = scaler.transform(ex.features);

  Mlp mlp(std::move(layers), seed);
  options.seed = seed ^ 0x9e3779b9;
  mlp.train(std::move(examples), options);
  return MlpDetector(std::move(name), std::move(mlp), std::move(scaler));
}

}  // namespace

MlpDetector MlpDetector::make_small_ann(const TraceSet& train,
                                        std::uint64_t seed) {
  return train_ann("small-ann", {kWindowFeatureDim, 4, 1}, train, seed, {});
}

MlpDetector MlpDetector::make_large_ann(const TraceSet& train,
                                        std::uint64_t seed) {
  MlpTrainOptions options;
  options.epochs = 80;
  return train_ann("large-ann", {kWindowFeatureDim, 8, 8, 1}, train, seed,
                   options);
}

}  // namespace valkyrie::ml
