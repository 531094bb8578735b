// The runtime-detector interface Valkyrie augments (paper Fig. 2).
//
// A detector sees the HPC measurement window accumulated for a process so
// far and returns one inference per epoch: D(t, i) in {benign, malicious}.
// Valkyrie is agnostic to what is behind the interface (paper §VII); this
// repository ships a statistical detector, small/large MLPs, a linear SVM,
// gradient-boosted trees and an LSTM behind it.
//
// Two entry points exist because the window grows every epoch:
//
//   infer(span)           — classify from the raw accumulated window; cost
//                           grows with the window for aggregate detectors.
//   infer(WindowSummary)  — classify from streaming statistics maintained
//                           in O(1) per epoch by a WindowAccumulator. The
//                           default adapter falls back to the raw window,
//                           so existing whole-window detectors keep working
//                           unmodified; detectors that can consume the
//                           summary override it and become O(1) per epoch.
//
// Detectors that classify each measurement independently and majority-vote
// (SVM, XGBoost, the statistical detector's accumulated view) additionally
// expose the per-measurement vote, letting the caller maintain running vote
// counts instead of re-scoring the whole window every epoch.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "hpc/hpc.hpp"
#include "ml/window_accumulator.hpp"

namespace valkyrie::ml {

/// kInvalid is the sanitized form of a *failed* inference — a detector that
/// threw, returned garbage bits, or was skipped because the slot's telemetry
/// exhausted its staleness budget. It never comes out of a healthy detector:
/// the engine manufactures it so downstream consumers (threat index, monitor
/// plan) can treat "no usable verdict this epoch" as an explicit state
/// instead of silently counting it as benign evidence.
enum class Inference : std::uint8_t { kBenign, kMalicious, kInvalid };

/// Feature-major matrix view over a batch of measurement feature vectors:
/// row f holds feature f of every batch item, consecutive items sit in
/// consecutive doubles (unit stride), and consecutive feature rows are
/// `stride` doubles apart. This is the layout SimSystem's feature plane
/// maintains across live slots, and the layout every batch kernel sweeps
/// with SIMD-friendly unit-stride inner loops.
struct FeatureMatrixView {
  const double* features = nullptr;  ///< hpc::kFeatureDim rows x stride
  std::size_t count = 0;             ///< batch items (columns)
  std::size_t stride = 0;            ///< doubles between feature rows

  [[nodiscard]] const double* row(std::size_t f) const noexcept {
    return features + f * stride;
  }

  /// Copies column `c` into a dense feature vector (the scalar adapters'
  /// bridge back to span-of-double detectors).
  void gather(std::size_t c, std::span<double> out) const noexcept {
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      out[f] = features[f * stride + c];
    }
  }

  /// Columns [begin, end) as a view (shard slicing).
  [[nodiscard]] FeatureMatrixView slice(std::size_t begin,
                                        std::size_t end) const noexcept {
    return {features + begin, end - begin, stride};
  }
};

/// Feature-major view over a batch of window summaries: per-feature rows of
/// the newest measurement's features, the running window mean and the
/// running window standard deviation (each hpc::kFeatureDim rows x stride),
/// plus per-column measurement counts. Any row group a producer does not
/// carry is null (SimSystem's plane carries only its armed sections). The
/// view carries no raw windows: column c is the WindowSummary of batch item
/// c with an empty window, exactly as WindowAccumulator::summary() with no
/// window argument builds it, and gather(c) materialises it.
struct SummaryMatrixView {
  const double* newest = nullptr;  ///< features of the newest measurement
  const double* mean = nullptr;    ///< running window mean
  const double* stddev = nullptr;  ///< running window stddev
  const std::size_t* counts = nullptr;  ///< measurements accumulated
  std::size_t count = 0;   ///< batch items (columns)
  std::size_t stride = 0;  ///< doubles between feature rows

  /// The newest-measurement rows as a vote-kernel input matrix.
  [[nodiscard]] FeatureMatrixView newest_view() const noexcept {
    return {newest, count, stride};
  }

  /// Materialises column `c` as a scalar WindowSummary; absent row groups
  /// read as zeros (defined after WindowSummary below; see detector.cpp).
  [[nodiscard]] WindowSummary gather(std::size_t c) const noexcept;

  /// Columns [begin, end) as a view (shard slicing); absent row groups
  /// stay null.
  [[nodiscard]] SummaryMatrixView slice(std::size_t begin,
                                        std::size_t end) const noexcept {
    const auto at = [begin](const auto* p) {
      return p != nullptr ? p + begin : nullptr;
    };
    return {at(newest), at(mean), at(stddev), at(counts), end - begin,
            stride};
  }
};

class Detector {
 public:
  virtual ~Detector() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Classifies a process given every measurement captured for it so far
  /// (oldest first). Called once per epoch with a growing window.
  [[nodiscard]] virtual Inference infer(
      std::span<const hpc::HpcSample> window) const = 0;

  /// Incremental entry point: classifies from the streaming summary of the
  /// accumulated window. The default adapter forwards to the whole-window
  /// overload via summary.window (linearizing the span pair first when the
  /// producer's finite-window ring has wrapped — see infer_wrapped);
  /// summary-capable detectors override this and never touch the raw
  /// measurements.
  [[nodiscard]] virtual Inference infer(const WindowSummary& summary) const {
    if (summary.window_wrap.empty()) return infer(summary.window);
    return infer_wrapped(summary);
  }

  /// For vote-based detectors: the fraction of per-measurement malicious
  /// votes (strictly) above which the whole window is inferred malicious.
  /// Returning a value promises that infer(window) is equivalent to scoring
  /// each measurement with measurement_vote() and comparing the malicious
  /// fraction against it — which lets callers keep running counts and infer
  /// in O(1) per epoch. Detectors without that structure return nullopt.
  [[nodiscard]] virtual std::optional<double> vote_fraction() const {
    return std::nullopt;
  }

  /// Classifies one measurement (features from hpc::to_features) in
  /// isolation. Only meaningful when vote_fraction() returns a value.
  [[nodiscard]] virtual bool measurement_vote(
      std::span<const double> /*features*/) const {
    return false;
  }

  // --- Batch entry points ----------------------------------------------------
  //
  // One virtual call classifies a whole batch of processes from the
  // feature-major plane instead of one process at a time. The default
  // adapters loop the scalar paths column by column, so every detector —
  // including out-of-tree ones — keeps working unmodified and, critically,
  // BIT-IDENTICALLY: a batch call must produce exactly the bits the scalar
  // loop would. Shipped detectors override them with blocked kernels whose
  // per-column accumulation order matches the scalar path exactly, keeping
  // that promise while the inner loops vectorize across columns.

  /// Batch measurement_vote: out[c] = measurement_vote(column c) as 0/1.
  /// `out.size()` must be >= batch.count. Only meaningful when
  /// vote_fraction() returns a value.
  virtual void measurement_votes(const FeatureMatrixView& batch,
                                 std::span<std::uint8_t> out) const;

  /// Batch infer(WindowSummary): out[c] = infer(batch.gather(c)).
  /// `out.size()` must be >= batch.count.
  virtual void infer_batch(const SummaryMatrixView& batch,
                           std::span<Inference> out) const;

  /// How ValkyrieEngine serves this detector, and which feature-plane
  /// sections its batch kernel reads. A detector with a batch kernel over
  /// the plane declares the rows that kernel reads, assuming the engine
  /// routes like StreamingInference does (measurement_votes when
  /// vote_fraction() returns a value, infer_batch otherwise; per-column
  /// counts are always maintained): the engine then maintains exactly those
  /// rows and makes one batch call per shard — e.g. a pure vote detector
  /// never reads the running mean/stddev rows, so no slot pays their
  /// 2*kFeatureDim strided stores or kFeatureDim square roots. The default
  /// (kFull) means "no batch kernel": the detector is served per slot from
  /// its scalar streaming path and no plane is armed for it — right for
  /// raw-window models and any detector that has not written a kernel.
  enum class PlaneSections : std::uint8_t {
    kNewestOnly,  // batch kernel reads the newest-measurement feature rows
    kStatsOnly,   // batch kernel reads the running mean + stddev rows
    kFull,        // no batch kernel: served per slot, no plane
  };
  [[nodiscard]] virtual PlaneSections plane_sections() const {
    return PlaneSections::kFull;
  }

  /// Sentinel raw_window() meaning "every sample accumulated so far".
  static constexpr std::size_t kWholeWindow = static_cast<std::size_t>(-1);

  /// How many of the newest raw samples the scalar path reads through
  /// WindowSummary::window / window_wrap. The engine sizes every process's
  /// retained history to exactly this (SimSystem::set_history_window), so
  /// samples no detector reads are never stored, appended or snapshotted.
  /// The default is kWholeWindow for a kFull detector and 0 for one with a
  /// batch kernel: the batch route never hands a kernel raw windows
  /// (SummaryMatrixView carries none) and both routes must produce the
  /// same bits, so such a detector cannot depend on them.
  [[nodiscard]] virtual std::size_t raw_window() const {
    return plane_sections() == PlaneSections::kFull ? kWholeWindow : 0;
  }

  /// Compatibility fingerprint recorded in snapshots. A restore is refused
  /// (typed kIncompatible error) when the hash recorded at capture time
  /// differs from the target engine's detector — a detector swapped or
  /// retrained between capture and restore would silently break the
  /// bit-replay contract otherwise. The default hashes the name only;
  /// every shipped detector overrides it to fold in its trained parameters
  /// (and the statistical detector its threshold and vote settings).
  [[nodiscard]] virtual std::uint64_t state_hash() const;

 protected:
  /// Bridge for raw-window detectors handed a wrapped ring window: copies
  /// the span pair into one oldest-first buffer and classifies that. Costs
  /// an allocation, paid only by whole-window detectors whose declared
  /// raw_window() is finite; streaming detectors never get here.
  [[nodiscard]] Inference infer_wrapped(const WindowSummary& summary) const;
};

/// Per-(process, detector) incremental inference state. Routes each epoch's
/// decision through the cheapest path the detector supports:
///
///   - vote-based detectors: fold the newest measurement's vote into running
///     counts and compare fractions — O(1) per epoch;
///   - everything else: hand over the streaming summary (summary-capable
///     detectors are O(1); whole-window detectors read the raw window the
///     producer retains for them through the default adapter).
///
/// Catch-up — folding votes for measurements the instance was not consulted
/// on (a mid-run attach, or several epochs between calls) — folds the
/// uncounted measurements the producer still retains: the raw window's
/// samples, and at least the newest measurement, whose features every
/// summary carries. Older ones are SKIPPED: a skipped measurement enters
/// neither the malicious tally nor the denominator, so the verdict is the
/// vote fraction over what was seen. An unbounded producer retains
/// everything, so nothing is skipped there. A shrink (episode reset)
/// recounts from scratch.
///
/// One instance serves exactly one (process, detector) pair: progress is
/// tracked by measurement count alone, so pointing an instance at a
/// *different* process whose window is at least as long would silently
/// merge stale votes. Call reset() before reusing an instance.
class StreamingInference {
 public:
  [[nodiscard]] Inference infer(const Detector& detector,
                                const WindowSummary& summary);

  /// True when the instance is exactly one measurement behind `count` —
  /// the common per-epoch step, where a batch-computed vote for the newest
  /// measurement can be folded directly via fold_vote(). Any other
  /// progression (catch-up, shrink, empty window) must go through infer().
  [[nodiscard]] bool can_fold(std::size_t count) const noexcept {
    return counted_ + skipped_ + 1 == count;
  }

  /// Folds one externally-computed vote for the newest measurement (the
  /// batched path's entry point; bit-identical to infer() taking its
  /// one-new-measurement branch with the same vote). Pre: can_fold(count).
  [[nodiscard]] Inference fold_vote(bool malicious_vote, std::size_t count,
                                    double fraction) noexcept {
    if (malicious_vote) ++malicious_;
    counted_ = count - skipped_;
    return verdict(fraction);
  }

  void reset() noexcept {
    malicious_ = 0;
    counted_ = 0;
    skipped_ = 0;
  }

  /// Marks `count` measurements as observed WITHOUT folding any votes —
  /// the containment hook for a detector that threw mid-scoring. The
  /// faulted measurement(s) enter the vote denominator as non-malicious,
  /// and, crucially, the next epoch's fast path no longer re-walks them:
  /// a deterministic per-measurement fault would otherwise re-throw on the
  /// same feature bits every epoch forever. No-op when already caught up.
  void mark_observed(std::size_t count) noexcept {
    if (count > counted_ + skipped_) counted_ = count - skipped_;
  }

  /// Running vote counts, for snapshot/restore: measurements voted on
  /// (the denominator), malicious votes among them, and measurements
  /// skipped because the producer no longer retained them at catch-up.
  [[nodiscard]] std::size_t malicious_count() const noexcept {
    return malicious_;
  }
  [[nodiscard]] std::size_t counted() const noexcept { return counted_; }
  [[nodiscard]] std::size_t skipped() const noexcept { return skipped_; }
  void restore(std::size_t malicious, std::size_t counted,
               std::size_t skipped) noexcept {
    malicious_ = malicious;
    counted_ = counted;
    skipped_ = skipped;
  }

 private:
  [[nodiscard]] Inference verdict(double fraction) const noexcept {
    return static_cast<double>(malicious_) >
                   fraction * static_cast<double>(counted_)
               ? Inference::kMalicious
               : Inference::kBenign;
  }

  std::size_t malicious_ = 0;
  std::size_t counted_ = 0;
  std::size_t skipped_ = 0;
};

/// Aggregate feature vector for whole-window models (the ANNs): per-event
/// mean and standard deviation of the log1p features over the window,
/// giving a fixed 2 * kFeatureDim dimensionality regardless of window size.
/// As the window grows these estimates concentrate, which is precisely why
/// detection efficacy rises with measurement count (paper Fig. 1).
///
/// This is the batch (two-pass) computation, used when building training
/// examples; the per-epoch inference path streams the same statistics
/// through a WindowAccumulator instead.
[[nodiscard]] std::vector<double> window_features(
    std::span<const hpc::HpcSample> window);

/// Per-feature standardisation (z-scoring) fit on training data. Neural
/// models need it: raw log1p counts sit around 15-20 and would saturate
/// tanh/sigmoid units from the first step.
class FeatureScaler {
 public:
  /// Learns mean and spread of each feature across the given vectors.
  void fit(std::span<const std::vector<double>> features);

  [[nodiscard]] std::vector<double> transform(
      std::span<const double> features) const;

  /// Allocation-free variant: writes standardised features into `out`
  /// (same length as the input; `out` may alias `features`, so in-place
  /// transformation is `transform(f, f)`).
  void transform(std::span<const double> features, std::span<double> out) const;

  [[nodiscard]] bool fitted() const noexcept { return !mean_.empty(); }
  [[nodiscard]] std::size_t dim() const noexcept { return mean_.size(); }

  /// Fitted parameters, for batch kernels that fuse the standardisation
  /// into their own blocked loops (same (x - mean) * inv_std arithmetic,
  /// so fused scaling stays bit-identical to transform()).
  [[nodiscard]] std::span<const double> means() const noexcept {
    return mean_;
  }
  [[nodiscard]] std::span<const double> inv_stddevs() const noexcept {
    return inv_std_;
  }

  /// Reinstates fitted parameters from a snapshot (bit-exact: the vectors
  /// are the same bits means() / inv_stddevs() exposed at capture time).
  void restore(std::vector<double> mean, std::vector<double> inv_std) {
    mean_ = std::move(mean);
    inv_std_ = std::move(inv_std);
  }

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace valkyrie::ml
