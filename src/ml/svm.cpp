#include "ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/serial.hpp"
#include "util/simd.hpp"

namespace valkyrie::ml {

double LinearSvm::decision(std::span<const double> features) const {
  if (!trained()) throw std::logic_error("LinearSvm: not trained");
  if (features.size() != weights_.size()) {
    throw std::invalid_argument("LinearSvm: feature dim mismatch");
  }
  double sum = bias_;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    sum += weights_[i] * features[i];
  }
  return sum;
}

void LinearSvm::train(std::vector<Example> examples,
                      const SvmTrainOptions& options) {
  if (examples.empty()) throw std::invalid_argument("LinearSvm: empty dataset");
  const std::size_t dim = examples.front().features.size();
  weights_.assign(dim, 0.0);
  bias_ = 0.0;

  // Class weights: a ransomware-heavy corpus must not buy recall by
  // flagging everything (the FPR would explode).
  const auto n_pos = static_cast<double>(
      std::count_if(examples.begin(), examples.end(),
                    [](const Example& e) { return e.malicious; }));
  const auto n_total = static_cast<double>(examples.size());
  const double n_neg = n_total - n_pos;
  const double w_pos = n_pos > 0.0 ? n_total / (2.0 * n_pos) : 1.0;
  const double w_neg = n_neg > 0.0 ? n_total / (2.0 * n_neg) : 1.0;

  util::Rng rng(options.seed);
  std::size_t t = 1;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    shuffle(examples, rng);
    for (const Example& ex : examples) {
      const double y = ex.malicious ? 1.0 : -1.0;
      const double cw = ex.malicious ? w_pos : w_neg;
      const double eta = 1.0 / (options.lambda * static_cast<double>(t));
      double margin = bias_;
      for (std::size_t i = 0; i < dim; ++i) {
        margin += weights_[i] * ex.features[i];
      }
      // Pegasos update: always shrink, add the example when it violates
      // the margin.
      const double shrink = 1.0 - eta * options.lambda;
      for (double& w : weights_) w *= shrink;
      if (y * margin < 1.0) {
        for (std::size_t i = 0; i < dim; ++i) {
          weights_[i] += eta * y * cw * ex.features[i];
        }
        bias_ += eta * y * cw * 0.1;  // lightly-regularised bias term
      }
      ++t;
    }
  }
}

namespace {

/// The weights-row-by-matrix sweep behind SvmDetector::measurement_votes,
/// as a free function because GCC cannot multiversion virtual members.
VALKYRIE_TARGET_CLONES
void svm_votes_kernel(const double* w, double bias,
                      const FeatureMatrixView& batch, std::uint8_t* out) {
  constexpr std::size_t kCols = 128;
  double acc[kCols];
  for (std::size_t base = 0; base < batch.count; base += kCols) {
    const std::size_t bw = std::min(kCols, batch.count - base);
    for (std::size_t c = 0; c < bw; ++c) acc[c] = bias;
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      const double* row = batch.row(f) + base;
      const double wf = w[f];
      for (std::size_t c = 0; c < bw; ++c) acc[c] += wf * row[c];
    }
    for (std::size_t c = 0; c < bw; ++c) out[base + c] = acc[c] > 0.0 ? 1 : 0;
  }
}

}  // namespace

SvmDetector::SvmDetector(LinearSvm svm) : svm_(std::move(svm)) {
  const double bias = svm_.bias();
  hash_ = util::fnv1a(name());
  hash_ = util::fnv1a(svm_.weights(), hash_);
  hash_ = util::fnv1a(std::span<const double>(&bias, 1), hash_);
}

void SvmDetector::measurement_votes(const FeatureMatrixView& batch,
                                    std::span<std::uint8_t> out) const {
  const std::vector<double>& w = svm_.weights();
  if (w.size() != hpc::kFeatureDim) {
    Detector::measurement_votes(batch, out);  // mirrors the scalar throw
    return;
  }
  svm_votes_kernel(w.data(), svm_.bias(), batch, out.data());
}

Inference SvmDetector::infer(std::span<const hpc::HpcSample> window) const {
  if (window.empty()) return Inference::kBenign;
  std::size_t malicious_votes = 0;
  hpc::FeatureVec f;
  for (const hpc::HpcSample& s : window) {
    hpc::to_features(s, f);
    if (svm_.decision(f) > 0.0) ++malicious_votes;
  }
  return 2 * malicious_votes > window.size() ? Inference::kMalicious
                                             : Inference::kBenign;
}

SvmDetector SvmDetector::make(const TraceSet& train, std::uint64_t seed) {
  std::vector<Example> examples = flatten(train);
  LinearSvm svm;
  SvmTrainOptions options;
  options.seed = seed;
  svm.train(std::move(examples), options);
  return SvmDetector(std::move(svm));
}

}  // namespace valkyrie::ml
