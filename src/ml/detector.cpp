#include "ml/detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/serial.hpp"

namespace valkyrie::ml {

std::uint64_t Detector::state_hash() const { return util::fnv1a(name()); }

void FeatureScaler::fit(std::span<const std::vector<double>> features) {
  if (features.empty()) {
    throw std::invalid_argument("FeatureScaler::fit: no data");
  }
  const std::size_t dim = features.front().size();
  const double n = static_cast<double>(features.size());
  mean_.assign(dim, 0.0);
  inv_std_.assign(dim, 0.0);
  for (const std::vector<double>& f : features) {
    for (std::size_t i = 0; i < dim; ++i) mean_[i] += f[i];
  }
  for (double& m : mean_) m /= n;
  for (const std::vector<double>& f : features) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = f[i] - mean_[i];
      inv_std_[i] += d * d;
    }
  }
  for (double& v : inv_std_) {
    const double stddev = std::sqrt(v / n);
    v = 1.0 / std::max(stddev, 1e-9);
  }
}

void FeatureScaler::transform(std::span<const double> features,
                              std::span<double> out) const {
  if (!fitted()) throw std::logic_error("FeatureScaler: not fitted");
  if (features.size() != mean_.size() || out.size() != mean_.size()) {
    throw std::invalid_argument("FeatureScaler: dimension mismatch");
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = (features[i] - mean_[i]) * inv_std_[i];
  }
}

std::vector<double> FeatureScaler::transform(
    std::span<const double> features) const {
  std::vector<double> out(features.size());
  transform(features, out);
  return out;
}

WindowSummary SummaryMatrixView::gather(std::size_t c) const noexcept {
  WindowSummary out;
  out.count = counts[c];
  for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
    if (newest != nullptr) out.newest[f] = newest[f * stride + c];
    if (mean != nullptr) out.mean[f] = mean[f * stride + c];
    if (stddev != nullptr) out.stddev[f] = stddev[f * stride + c];
  }
  return out;
}

Inference Detector::infer_wrapped(const WindowSummary& summary) const {
  std::vector<hpc::HpcSample> linear;
  linear.reserve(summary.window_total());
  linear.insert(linear.end(), summary.window.begin(), summary.window.end());
  linear.insert(linear.end(), summary.window_wrap.begin(),
                summary.window_wrap.end());
  return infer(std::span<const hpc::HpcSample>(linear));
}

// Default batch adapters: column-by-column loops over the scalar paths.
// They exist so the batch entry points are universally callable — any
// detector, including one written before the batch API existed, produces
// bit-identical results through them; overriding with a blocked kernel is
// purely a performance decision.

void Detector::measurement_votes(const FeatureMatrixView& batch,
                                 std::span<std::uint8_t> out) const {
  hpc::FeatureVec f;
  for (std::size_t c = 0; c < batch.count; ++c) {
    batch.gather(c, f);
    out[c] = measurement_vote(f) ? 1 : 0;
  }
}

void Detector::infer_batch(const SummaryMatrixView& batch,
                           std::span<Inference> out) const {
  for (std::size_t c = 0; c < batch.count; ++c) {
    out[c] = infer(batch.gather(c));
  }
}

Inference StreamingInference::infer(const Detector& detector,
                                    const WindowSummary& summary) {
  const std::optional<double> fraction = detector.vote_fraction();
  if (!fraction || summary.count == 0) return detector.infer(summary);
  std::size_t seen = counted_ + skipped_;
  if (seen > summary.count) {  // window shrank: recount
    reset();
    seen = 0;
  }
  if (seen + 1 == summary.count) {
    // The common per-epoch step: exactly one new measurement.
    if (detector.measurement_vote(summary.newest)) ++malicious_;
    ++counted_;
  } else if (seen < summary.count) {
    // Catch-up: measurement i sits at logical window index
    // i + total - count, so the producer retains the newest `retained`
    // measurements — the newest always, through summary.newest. Skip what
    // it dropped, fold the rest.
    const std::size_t total = summary.window_total();
    const std::size_t retained = std::min(std::max<std::size_t>(total, 1),
                                          summary.count);
    const std::size_t first = summary.count - retained;
    if (seen < first) {
      skipped_ += first - seen;
      seen = first;
    }
    if (total == 0) {
      if (detector.measurement_vote(summary.newest)) ++malicious_;
    } else {
      hpc::FeatureVec f;
      for (std::size_t i = seen; i < summary.count; ++i) {
        hpc::to_features(summary.window_at(i + total - summary.count), f);
        if (detector.measurement_vote(f)) ++malicious_;
      }
    }
    counted_ += summary.count - seen;
  }
  return verdict(*fraction);
}

std::vector<double> window_features(std::span<const hpc::HpcSample> window) {
  std::vector<double> out(kWindowFeatureDim, 0.0);
  if (window.empty()) return out;
  const double n = static_cast<double>(window.size());
  hpc::FeatureVec f;
  // Mean of each log1p feature.
  for (const hpc::HpcSample& s : window) {
    hpc::to_features(s, f);
    for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) out[i] += f[i];
  }
  for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) out[i] /= n;
  // Standard deviation of each feature.
  for (const hpc::HpcSample& s : window) {
    hpc::to_features(s, f);
    for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) {
      const double d = f[i] - out[i];
      out[hpc::kFeatureDim + i] += d * d;
    }
  }
  for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) {
    out[hpc::kFeatureDim + i] = std::sqrt(out[hpc::kFeatureDim + i] / n);
  }
  return out;
}

}  // namespace valkyrie::ml
