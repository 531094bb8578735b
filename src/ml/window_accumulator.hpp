// Streaming per-process feature statistics — the O(1)-per-epoch replacement
// for recomputing window_features() over the full accumulated measurement
// window every epoch.
//
// Valkyrie's premise is that detection efficacy grows with the accumulated
// window (paper Fig. 1 / §IV-A), so a T-epoch run that re-derives aggregate
// features from scratch each epoch pays O(T^2) total feature work per
// process. A WindowAccumulator instead folds each new HpcSample into
// Welford running mean/variance of the log1p features as it is captured:
// O(kFeatureDim) per epoch, allocation-free, and numerically at least as
// good as the two-pass batch computation.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "hpc/hpc.hpp"

namespace valkyrie::ml {

/// Aggregate feature dimensionality for whole-window models: per-event mean
/// followed by per-event standard deviation of the log1p features.
inline constexpr std::size_t kWindowFeatureDim = 2 * hpc::kFeatureDim;

/// One epoch's view of a process's accumulated measurement window: the
/// streaming statistics plus (for detectors that still need it) the raw
/// window itself. Assembled once per process per epoch and shared by every
/// detector that inspects the process.
struct WindowSummary {
  /// Number of measurements accumulated.
  std::size_t count = 0;
  /// Per-feature running mean of hpc::to_features over the window.
  hpc::FeatureVec mean{};
  /// Per-feature population standard deviation over the window.
  hpc::FeatureVec stddev{};
  /// Features of the newest measurement (the one added this epoch). Columns
  /// flagged in stale_mask carry the last-known running mean instead of a
  /// fresh measurement (masked standardization: a substituted column
  /// standardizes to a zero z-score, a neutral vote).
  hpc::FeatureVec newest{};
  /// Bit f set = feature f of `newest` is a last-known-stat substitution
  /// (the counter was quarantined this epoch), not a live measurement.
  std::uint32_t stale_mask = 0;
  /// The raw accumulated window, oldest first. May be empty for callers
  /// that only stream; the default Detector adapter needs it.
  std::span<const hpc::HpcSample> window{};
  /// Wrapped tail of a finite-window ring history: producers that keep
  /// the window in a fixed-capacity ring expose the logical window as the
  /// span pair [window..., window_wrap...] — `window` is the older
  /// (post-head) run, `window_wrap` the recycled front, newest measurement
  /// last. Always empty for whole-window histories, so single-span
  /// consumers see exactly the pre-ring view; windowed consumers read
  /// through window_at().
  std::span<const hpc::HpcSample> window_wrap{};

  /// Measurements in the logical window (both spans).
  [[nodiscard]] std::size_t window_total() const noexcept {
    return window.size() + window_wrap.size();
  }

  /// Logical window indexing, oldest first, across the span pair.
  [[nodiscard]] const hpc::HpcSample& window_at(std::size_t i) const noexcept {
    return i < window.size() ? window[i] : window_wrap[i - window.size()];
  }

  /// The whole-window aggregate feature vector [mean..., stddev...] —
  /// identical (to floating-point noise) to batch window_features().
  [[nodiscard]] std::array<double, kWindowFeatureDim> features()
      const noexcept {
    std::array<double, kWindowFeatureDim> out;
    for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) {
      out[i] = mean[i];
      out[hpc::kFeatureDim + i] = stddev[i];
    }
    return out;
  }
};

/// Welford running mean/variance over the log1p features of a growing
/// measurement window. add() is O(kFeatureDim) with zero heap allocations;
/// the summary is always consistent with the samples added since the last
/// reset().
///
/// The accumulator lives in SimSystem's slot-indexed hot-state arrays and
/// is relocated by plain assignment when slots compact, so it must stay
/// trivially copyable (static_asserted below) — no owning members.
class WindowAccumulator {
 public:
  /// Folds one epoch's sample into the running statistics.
  void add(const hpc::HpcSample& sample) noexcept {
    hpc::to_features(sample, newest_);
    add_features(newest_);
  }

  /// Folds a partially-quarantined sample: columns flagged in stale_mask
  /// are excluded from the statistics and substituted in newest (see
  /// add_features_masked).
  void add_masked(const hpc::HpcSample& sample,
                  std::uint32_t stale_mask) noexcept {
    hpc::to_features(sample, newest_);
    add_features_masked(newest_, stale_mask);
  }

  /// Folds an already-computed feature vector (callers that have one).
  void add_features(std::span<const double> features) noexcept {
    add_features_masked(features, 0);
  }

  /// Partial-plane fold: features whose bit is set in stale_mask were
  /// quarantined by validation and contribute nothing to the statistics —
  /// their per-feature counts, means and m2 freeze, and the "newest" value
  /// exposed downstream becomes the last-known running mean
  /// (last-known-stat substitution — the column standardizes to a zero
  /// z-score instead of poisoning the score). Healthy columns fold exactly
  /// as add_features does: while a feature has never been masked its count
  /// equals the sample count, so an all-zero mask history is bit-identical
  /// to the unmasked fold.
  void add_features_masked(std::span<const double> features,
                           std::uint32_t stale_mask) noexcept {
    ++count_;
    newest_mask_ = stale_mask;
    for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) {
      if (stale_mask & (1u << i)) {
        newest_[i] = mean_[i];
        continue;
      }
      ++fcount_[i];
      const double inv_n = 1.0 / static_cast<double>(fcount_[i]);
      const double delta = features[i] - mean_[i];
      mean_[i] += delta * inv_n;
      m2_[i] += delta * (features[i] - mean_[i]);
      newest_[i] = features[i];
    }
  }

  /// Forgets everything (episode reset / process restart).
  void reset() noexcept {
    count_ = 0;
    mean_.fill(0.0);
    m2_.fill(0.0);
    newest_.fill(0.0);
    fcount_.fill(0);
    newest_mask_ = 0;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Per-feature fold count: how many of the count() samples contributed a
  /// live (unquarantined) value for feature f. Equals count() for features
  /// never masked.
  [[nodiscard]] std::size_t feature_count(std::size_t f) const noexcept {
    return fcount_[f];
  }

  /// The stale mask of the most recently folded sample (0 when it was
  /// fully live).
  [[nodiscard]] std::uint32_t newest_mask() const noexcept {
    return newest_mask_;
  }

  /// Features of the most recently added sample (masked columns carry the
  /// last-known-stat substitution).
  [[nodiscard]] const hpc::FeatureVec& newest_features() const noexcept {
    return newest_;
  }

  /// Writes the newest-measurement features into one column of a
  /// feature-major plane: feature f lands `f * stride` doubles past the
  /// base pointer.
  void store_newest_column(double* newest_col,
                           std::size_t stride) const noexcept {
    for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) {
      newest_col[i * stride] = newest_[i];
    }
  }

  /// Writes the running mean/stddev into two plane columns. The stddev
  /// uses exactly summary()'s formula, so the columns carry the same bits
  /// a freshly assembled WindowSummary would. Pre: count() > 0.
  void store_stats_columns(double* mean_col, double* stddev_col,
                           std::size_t stride) const noexcept {
    for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) {
      mean_col[i * stride] = mean_[i];
      if (fcount_[i] == 0) {
        stddev_col[i * stride] = 0.0;
        continue;
      }
      // Multiply by the reciprocal (not divide) to carry the exact bits the
      // pre-mask single-inv_n formula produced when fcount == count.
      const double var = m2_[i] * (1.0 / static_cast<double>(fcount_[i]));
      stddev_col[i * stride] = var > 0.0 ? std::sqrt(var) : 0.0;
    }
  }

  /// All three column groups at once (full-plane drivers and tests).
  void store_plane_column(double* newest_col, double* mean_col,
                          double* stddev_col,
                          std::size_t stride) const noexcept {
    store_newest_column(newest_col, stride);
    store_stats_columns(mean_col, stddev_col, stride);
  }

  /// Raw Welford state, for snapshot/restore. Restoring and continuing to
  /// add() produces bit-identical statistics to the uninterrupted stream.
  struct State {
    std::size_t count = 0;
    hpc::FeatureVec mean{};
    hpc::FeatureVec m2{};
    hpc::FeatureVec newest{};
    std::array<std::size_t, hpc::kFeatureDim> fcount{};
    std::uint32_t newest_mask = 0;
  };

  [[nodiscard]] State state() const noexcept {
    return {count_, mean_, m2_, newest_, fcount_, newest_mask_};
  }

  void restore(const State& s) noexcept {
    count_ = s.count;
    mean_ = s.mean;
    m2_ = s.m2;
    newest_ = s.newest;
    fcount_ = s.fcount;
    newest_mask_ = s.newest_mask;
  }

  /// Assembles the streaming summary; `window` is attached verbatim for
  /// detectors that fall back to the raw measurements.
  [[nodiscard]] WindowSummary summary(
      std::span<const hpc::HpcSample> window = {}) const noexcept {
    WindowSummary out;
    out.count = count_;
    out.newest = newest_;
    out.stale_mask = newest_mask_;
    out.window = window;
    if (count_ == 0) return out;
    for (std::size_t i = 0; i < hpc::kFeatureDim; ++i) {
      out.mean[i] = mean_[i];
      if (fcount_[i] == 0) continue;  // stddev stays 0 (never folded live)
      const double var = m2_[i] * (1.0 / static_cast<double>(fcount_[i]));
      out.stddev[i] = var > 0.0 ? std::sqrt(var) : 0.0;
    }
    return out;
  }

 private:
  std::size_t count_ = 0;
  hpc::FeatureVec mean_{};
  hpc::FeatureVec m2_{};
  hpc::FeatureVec newest_{};
  std::array<std::size_t, hpc::kFeatureDim> fcount_{};
  std::uint32_t newest_mask_ = 0;
};

static_assert(std::is_trivially_copyable_v<WindowAccumulator>,
              "WindowAccumulator is relocated byte-wise by SimSystem's "
              "hot-slot compaction");

}  // namespace valkyrie::ml
