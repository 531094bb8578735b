// Labeled HPC traces for training and evaluating detectors.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hpc/hpc.hpp"
#include "util/rng.hpp"

namespace valkyrie::ml {

/// One program execution: the sequence of per-epoch HPC samples plus the
/// ground-truth label.
struct LabeledTrace {
  std::string name;
  std::vector<hpc::HpcSample> samples;
  bool malicious = false;
};

struct TraceSet {
  std::vector<LabeledTrace> traces;

  [[nodiscard]] std::size_t count_malicious() const noexcept;
  [[nodiscard]] std::size_t count_benign() const noexcept;
};

/// A flat per-measurement example (for SVM / GBT, which classify each
/// measurement individually and majority-vote).
struct Example {
  std::vector<double> features;
  bool malicious = false;
};

/// Flattens traces into per-measurement examples using hpc::to_features.
[[nodiscard]] std::vector<Example> flatten(const TraceSet& set);

/// The same examples as one feature-major image: feature f of example i at
/// values[f * count + i], its label at malicious[i]. One allocation per
/// image rather than one per example; the GBT fits from it.
struct FeatureColumns {
  std::size_t dim = 0;
  std::size_t count = 0;
  std::vector<double> values;
  std::vector<std::uint8_t> malicious;

  [[nodiscard]] const double* column(std::size_t f) const noexcept {
    return values.data() + f * count;
  }
};

/// flatten() as a column image, written through the strided
/// hpc::to_features: the same feature bits in the same example order.
[[nodiscard]] FeatureColumns flatten_columns(const TraceSet& set);

/// Copies examples into a column image. Every example must have the first
/// one's dimension.
[[nodiscard]] FeatureColumns to_columns(std::span<const Example> examples);

/// Shuffles examples in place (training order).
void shuffle(std::vector<Example>& examples, util::Rng& rng);

/// Splits a trace set into train/test by trace (not by sample), keeping
/// `train_fraction` of each class in the training half. Takes the set by
/// value and moves every trace into one of the halves — pass std::move(set)
/// to avoid copying trace samples, or an lvalue to keep the source intact.
struct TraceSplit {
  TraceSet train;
  TraceSet test;
};
[[nodiscard]] TraceSplit split_traces(TraceSet set, double train_fraction,
                                      util::Rng& rng);

}  // namespace valkyrie::ml
