#include "ml/stat_detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/serial.hpp"
#include "util/simd.hpp"

namespace valkyrie::ml {

StatisticalDetector::StatisticalDetector(StatDetectorConfig config)
    : config_(config) {
  refresh_hash();
}

void StatisticalDetector::refresh_hash() noexcept {
  // The counts are exact as doubles; kWholeWindow rounds to 2^64, still
  // apart from any finite vote window.
  const double head[] = {config_.threshold, config_.vote_fraction,
                         static_cast<double>(config_.vote_window),
                         static_cast<double>(benign_models_.size()),
                         static_cast<double>(attack_models_.size())};
  hash_ = util::fnv1a(name());
  hash_ = util::fnv1a(head, hash_);
  hash_ = util::fnv1a(mean_, hash_);
  hash_ = util::fnv1a(stddev_, hash_);
  for (const auto* models : {&benign_models_, &attack_models_}) {
    for (const Gaussian& g : *models) {
      hash_ = util::fnv1a(g.mean, hash_);
      hash_ = util::fnv1a(g.stddev, hash_);
    }
  }
}

namespace {

/// Diagonal-Gaussian fit of a set of feature vectors (by pointer list).
void fit_gaussian(const std::vector<const std::vector<double>*>& rows,
                  std::vector<double>& mean, std::vector<double>& stddev) {
  const std::size_t dim = rows.front()->size();
  const auto n = static_cast<double>(rows.size());
  mean.assign(dim, 0.0);
  stddev.assign(dim, 0.0);
  for (const std::vector<double>* row : rows) {
    for (std::size_t i = 0; i < dim; ++i) mean[i] += (*row)[i];
  }
  for (double& m : mean) m /= n;
  for (const std::vector<double>* row : rows) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = (*row)[i] - mean[i];
      stddev[i] += d * d;
    }
  }
  for (double& s : stddev) {
    s = std::sqrt(s / n);
    // Floor the spread so near-constant features do not dominate z-scores.
    if (s < 0.05) s = 0.05;
  }
}

/// Diagonal-Gaussian negative log-likelihood (up to a constant), averaged
/// per feature: 0.5*z^2 + log(sigma). Unlike a plain z-distance this
/// rewards tight clusters, so "being inside your own mode" beats "being
/// vaguely near a wide one". z is capped so one wild counter cannot
/// dominate the decision.
double avg_nll(std::span<const double> features, const std::vector<double>& mean,
               const std::vector<double>& stddev) {
  double total = 0.0;
  for (std::size_t i = 0; i < mean.size(); ++i) {
    const double z = std::min(8.0, std::abs(features[i] - mean[i]) / stddev[i]);
    total += 0.5 * z * z + std::log(stddev[i]);
  }
  return total / static_cast<double>(mean.size());
}

double sq_dist(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

}  // namespace

std::vector<StatisticalDetector::Gaussian> StatisticalDetector::cluster_gaussians(
    const std::vector<const std::vector<double>*>& rows, std::size_t max_k) {
  std::vector<Gaussian> models;
  if (rows.empty()) return models;
  // A few rounds of k-means, one diagonal Gaussian per surviving cluster.
  const std::size_t k =
      std::max<std::size_t>(1, std::min(max_k, rows.size() / 10));
  std::vector<std::vector<double>> centroids;
  for (std::size_t c = 0; c < k; ++c) {
    centroids.push_back(*rows[c * rows.size() / k]);
  }
  std::vector<std::size_t> assignment(rows.size(), 0);
  for (int round = 0; round < 10; ++round) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::size_t best = 0;
      double best_d = sq_dist(*rows[r], centroids[0]);
      for (std::size_t c = 1; c < k; ++c) {
        const double d = sq_dist(*rows[r], centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      assignment[r] = best;
    }
    for (std::size_t c = 0; c < k; ++c) {
      std::vector<double> sum(centroids[c].size(), 0.0);
      std::size_t count = 0;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (assignment[r] != c) continue;
        for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += (*rows[r])[i];
        ++count;
      }
      if (count > 0) {
        for (std::size_t i = 0; i < sum.size(); ++i) {
          centroids[c][i] = sum[i] / static_cast<double>(count);
        }
      }
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<const std::vector<double>*> members;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (assignment[r] == c) members.push_back(rows[r]);
    }
    if (members.size() < 3) continue;  // degenerate cluster
    Gaussian g;
    fit_gaussian(members, g.mean, g.stddev);
    models.push_back(std::move(g));
  }
  return models;
}

void StatisticalDetector::fit(std::span<const Example> examples) {
  std::vector<const std::vector<double>*> benign_rows;
  std::vector<const std::vector<double>*> attack_rows;
  for (const Example& ex : examples) {
    (ex.malicious ? attack_rows : benign_rows).push_back(&ex.features);
  }
  if (benign_rows.empty()) {
    throw std::invalid_argument(
        "StatisticalDetector::fit: no benign examples");
  }
  fit_gaussian(benign_rows, mean_, stddev_);
  benign_models_ = cluster_gaussians(benign_rows, config_.benign_clusters);

  attack_models_.clear();
  if (!attack_rows.empty()) {
    attack_models_ = cluster_gaussians(attack_rows, config_.attack_clusters);
  }
  refresh_hash();
}

double StatisticalDetector::score(std::span<const double> features) const {
  if (!trained()) {
    throw std::logic_error("StatisticalDetector: not trained");
  }
  if (features.size() != mean_.size()) {
    throw std::invalid_argument("StatisticalDetector: feature dim mismatch");
  }
  if (has_attack_model()) {
    // Nearest-cluster classification: positive when the epoch resembles
    // the nearest known attack signature more than the nearest benign
    // behaviour mode.
    double nearest_attack = std::numeric_limits<double>::infinity();
    for (const Gaussian& g : attack_models_) {
      nearest_attack =
          std::min(nearest_attack, avg_nll(features, g.mean, g.stddev));
    }
    double nearest_benign = avg_nll(features, mean_, stddev_);
    for (const Gaussian& g : benign_models_) {
      nearest_benign =
          std::min(nearest_benign, avg_nll(features, g.mean, g.stddev));
    }
    return nearest_benign - nearest_attack;
  }
  // No attack examples: pure anomaly detection. The alarm fires when ANY
  // counter sits too far from its benign distribution; a mean over all
  // counters would dilute the one or two events an attack actually moves.
  double worst = 0.0;
  for (std::size_t i = 0; i < mean_.size(); ++i) {
    worst = std::max(worst, std::abs(features[i] - mean_[i]) / stddev_[i]);
  }
  return worst;
}

namespace {

/// Batch avg_nll for one Gaussian over a column block: total[c] accumulates
/// 0.5*z^2 + log(sigma) in the scalar path's ascending-feature order (the
/// log(sigma) term is the same double every column, hoisted per feature).
VALKYRIE_TARGET_CLONES
void avg_nll_block(const double* features, std::size_t stride, std::size_t bw,
                   const std::vector<double>& mean,
                   const std::vector<double>& stddev, double* out) {
  for (std::size_t c = 0; c < bw; ++c) out[c] = 0.0;
  for (std::size_t f = 0; f < mean.size(); ++f) {
    const double* row = features + f * stride;
    const double m = mean[f];
    const double s = stddev[f];
    const double log_s = std::log(s);
    for (std::size_t c = 0; c < bw; ++c) {
      const double z = std::min(8.0, std::abs(row[c] - m) / s);
      out[c] += 0.5 * z * z + log_s;
    }
  }
  const double dim = static_cast<double>(mean.size());
  for (std::size_t c = 0; c < bw; ++c) out[c] /= dim;
}

}  // namespace

void StatisticalDetector::scores_plane(const double* features,
                                       std::size_t stride, std::size_t n,
                                       double* out) const {
  if (!trained()) {
    throw std::logic_error("StatisticalDetector: not trained");
  }
  if (mean_.size() != hpc::kFeatureDim) {
    throw std::invalid_argument("StatisticalDetector: feature dim mismatch");
  }
  constexpr std::size_t kCols = 128;
  double nearest[kCols];
  double tmp[kCols];
  for (std::size_t base = 0; base < n; base += kCols) {
    const std::size_t bw = std::min(kCols, n - base);
    const double* block = features + base;
    double* out_block = out + base;
    if (has_attack_model()) {
      for (std::size_t c = 0; c < bw; ++c) {
        nearest[c] = std::numeric_limits<double>::infinity();
      }
      for (const Gaussian& g : attack_models_) {
        avg_nll_block(block, stride, bw, g.mean, g.stddev, tmp);
        for (std::size_t c = 0; c < bw; ++c) {
          nearest[c] = std::min(nearest[c], tmp[c]);
        }
      }
      avg_nll_block(block, stride, bw, mean_, stddev_, out_block);
      for (const Gaussian& g : benign_models_) {
        avg_nll_block(block, stride, bw, g.mean, g.stddev, tmp);
        for (std::size_t c = 0; c < bw; ++c) {
          out_block[c] = std::min(out_block[c], tmp[c]);
        }
      }
      for (std::size_t c = 0; c < bw; ++c) out_block[c] -= nearest[c];
    } else {
      for (std::size_t c = 0; c < bw; ++c) out_block[c] = 0.0;
      for (std::size_t f = 0; f < mean_.size(); ++f) {
        const double* row = block + f * stride;
        const double m = mean_[f];
        const double s = stddev_[f];
        for (std::size_t c = 0; c < bw; ++c) {
          out_block[c] = std::max(out_block[c], std::abs(row[c] - m) / s);
        }
      }
    }
  }
}

void StatisticalDetector::measurement_votes(const FeatureMatrixView& batch,
                                            std::span<std::uint8_t> out) const {
  constexpr std::size_t kCols = 128;
  double scores[kCols];
  for (std::size_t base = 0; base < batch.count; base += kCols) {
    const std::size_t bw = std::min(kCols, batch.count - base);
    scores_plane(batch.features + base, batch.stride, bw, scores);
    for (std::size_t c = 0; c < bw; ++c) {
      out[base + c] = scores[c] > config_.threshold;
    }
  }
}

void StatisticalDetector::infer_batch(const SummaryMatrixView& batch,
                                      std::span<Inference> out) const {
  if (config_.vote_window != 1) {
    Detector::infer_batch(batch, out);  // scalar loop (raw-window voting)
    return;
  }
  // Newest-only vote: one sweep over the newest-measurement rows, exactly
  // the scalar streaming path per column (count == 0 stays benign).
  constexpr std::size_t kCols = 128;
  double scores[kCols];
  const bool fraction_allows = config_.vote_fraction < 1.0;
  for (std::size_t base = 0; base < batch.count; base += kCols) {
    const std::size_t bw = std::min(kCols, batch.count - base);
    scores_plane(batch.newest + base, batch.stride, bw, scores);
    for (std::size_t c = 0; c < bw; ++c) {
      const bool malicious = batch.counts[base + c] != 0 && fraction_allows &&
                             scores[c] > config_.threshold;
      out[base + c] = malicious ? Inference::kMalicious : Inference::kBenign;
    }
  }
}

Inference StatisticalDetector::infer(
    std::span<const hpc::HpcSample> window) const {
  if (window.empty()) return Inference::kBenign;
  const std::size_t take = std::min(config_.vote_window, window.size());
  std::size_t malicious_votes = 0;
  hpc::FeatureVec f;
  for (std::size_t i = 0; i < take; ++i) {
    hpc::to_features(window[window.size() - 1 - i], f);
    if (score(f) > config_.threshold) ++malicious_votes;
  }
  return static_cast<double>(malicious_votes) >
                 config_.vote_fraction * static_cast<double>(take)
             ? Inference::kMalicious
             : Inference::kBenign;
}

Inference StatisticalDetector::infer(const WindowSummary& summary) const {
  if (summary.count == 0) return Inference::kBenign;
  if (config_.vote_window == 1) {
    // Newest-only vote: exactly infer({&newest, 1}) without the window.
    const bool malicious = measurement_vote(summary.newest) &&
                           config_.vote_fraction < 1.0;
    return malicious ? Inference::kMalicious : Inference::kBenign;
  }
  if (summary.window_wrap.empty()) return infer(summary.window);
  // Wrapped finite-window ring: same newest-first vote walk as
  // infer(span), reading logical positions through the span pair.
  const std::size_t total = summary.window_total();
  const std::size_t take = std::min(config_.vote_window, total);
  std::size_t malicious_votes = 0;
  hpc::FeatureVec f;
  for (std::size_t i = 0; i < take; ++i) {
    hpc::to_features(summary.window_at(total - 1 - i), f);
    if (score(f) > config_.threshold) ++malicious_votes;
  }
  return static_cast<double>(malicious_votes) >
                 config_.vote_fraction * static_cast<double>(take)
             ? Inference::kMalicious
             : Inference::kBenign;
}

}  // namespace valkyrie::ml
