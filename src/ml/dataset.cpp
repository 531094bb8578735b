#include "ml/dataset.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace valkyrie::ml {

std::size_t TraceSet::count_malicious() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(traces.begin(), traces.end(),
                    [](const LabeledTrace& t) { return t.malicious; }));
}

std::size_t TraceSet::count_benign() const noexcept {
  return traces.size() - count_malicious();
}

std::vector<Example> flatten(const TraceSet& set) {
  std::size_t total = 0;
  for (const LabeledTrace& trace : set.traces) total += trace.samples.size();
  std::vector<Example> out;
  out.reserve(total);
  for (const LabeledTrace& trace : set.traces) {
    for (const hpc::HpcSample& sample : trace.samples) {
      const hpc::FeatureVec f = hpc::to_features(sample);
      out.push_back({{f.begin(), f.end()}, trace.malicious});
    }
  }
  return out;
}

FeatureColumns flatten_columns(const TraceSet& set) {
  FeatureColumns out;
  out.dim = hpc::kFeatureDim;
  for (const LabeledTrace& trace : set.traces) {
    out.count += trace.samples.size();
  }
  out.values.resize(out.dim * out.count);
  out.malicious.reserve(out.count);
  for (const LabeledTrace& trace : set.traces) {
    for (const hpc::HpcSample& sample : trace.samples) {
      hpc::to_features(sample, out.values.data() + out.malicious.size(),
                       out.count);
      out.malicious.push_back(trace.malicious ? 1 : 0);
    }
  }
  return out;
}

FeatureColumns to_columns(std::span<const Example> examples) {
  FeatureColumns out;
  out.dim = examples.empty() ? 0 : examples.front().features.size();
  out.count = examples.size();
  out.values.resize(out.dim * out.count);
  out.malicious.resize(out.count);
  for (std::size_t i = 0; i < out.count; ++i) {
    const Example& ex = examples[i];
    if (ex.features.size() != out.dim) {
      throw std::invalid_argument("to_columns: examples differ in dimension");
    }
    for (std::size_t f = 0; f < out.dim; ++f) {
      out.values[f * out.count + i] = ex.features[f];
    }
    out.malicious[i] = ex.malicious ? 1 : 0;
  }
  return out;
}

void shuffle(std::vector<Example>& examples, util::Rng& rng) {
  for (std::size_t i = examples.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(examples[i - 1], examples[j]);
  }
}

TraceSplit split_traces(TraceSet set, double train_fraction, util::Rng& rng) {
  // Partition per class so both halves see both classes. The set is taken
  // by value and traces are moved into the halves, so no sample vector is
  // ever copied (callers that still need the source pass a copy).
  std::vector<LabeledTrace*> malicious;
  std::vector<LabeledTrace*> benign;
  malicious.reserve(set.traces.size());
  benign.reserve(set.traces.size());
  for (LabeledTrace& t : set.traces) {
    (t.malicious ? malicious : benign).push_back(&t);
  }
  const auto shuffle_ptrs = [&rng](std::vector<LabeledTrace*>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.below(i)]);
    }
  };
  shuffle_ptrs(malicious);
  shuffle_ptrs(benign);

  TraceSplit out;
  out.train.traces.reserve(set.traces.size());
  out.test.traces.reserve(set.traces.size());
  const auto distribute = [&](const std::vector<LabeledTrace*>& v) {
    const auto n_train = static_cast<std::size_t>(
        train_fraction * static_cast<double>(v.size()) + 0.5);
    for (std::size_t i = 0; i < v.size(); ++i) {
      (i < n_train ? out.train : out.test)
          .traces.push_back(std::move(*v[i]));
    }
  };
  distribute(malicious);
  distribute(benign);
  return out;
}

}  // namespace valkyrie::ml
