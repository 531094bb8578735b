// Shared setup for the engine_scaling component harness: an endless
// signature-driven workload, a small separable corpus with a trained MLP
// detector, and a populated feature plane, so every section measures the
// exact same detector inputs.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "hpc/hpc.hpp"
#include "ml/dataset.hpp"
#include "ml/mlp.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace valkyrie::bench {

/// Synthetic workload: emits samples from a fixed HPC signature and never
/// finishes, so closed-population sweeps keep constant process counts.
class SignatureWorkload final : public sim::Workload {
 public:
  explicit SignatureWorkload(hpc::HpcSignature sig) : sig_(sig) {}

  [[nodiscard]] std::string_view name() const override { return "signature"; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override {
    sim::StepResult out;
    out.progress = shares.cpu;
    progress_ += out.progress;
    out.hpc = sig_.sample(*ctx.rng, shares.cpu, ctx.hpc_noise);
    return out;
  }
  [[nodiscard]] double total_progress() const override { return progress_; }

 private:
  hpc::HpcSignature sig_;
  double progress_ = 0.0;
};

inline hpc::HpcSignature engine_bench_benign_signature() {
  hpc::HpcSignature sig;
  sig.at(hpc::Event::kInstructions) = 3e8;
  sig.at(hpc::Event::kCycles) = 3.5e8;
  sig.at(hpc::Event::kL1dMisses) = 2e6;
  sig.at(hpc::Event::kLlcMisses) = 4e5;
  sig.at(hpc::Event::kMemBandwidth) = 5e7;
  return sig;
}

inline hpc::HpcSignature engine_bench_attack_signature() {
  hpc::HpcSignature sig;
  sig.at(hpc::Event::kInstructions) = 4e7;
  sig.at(hpc::Event::kCycles) = 3.5e8;
  sig.at(hpc::Event::kL1dMisses) = 6e7;
  sig.at(hpc::Event::kLlcMisses) = 4e7;
  sig.at(hpc::Event::kMemBandwidth) = 2e9;
  return sig;
}

/// Small well-separated corpus so the trained MLP stays quiet on the
/// benign signature (no terminations mid-measurement).
inline ml::TraceSet engine_bench_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  ml::TraceSet set;
  for (int label = 0; label < 2; ++label) {
    const hpc::HpcSignature sig = label == 1 ? engine_bench_attack_signature()
                                             : engine_bench_benign_signature();
    for (int t = 0; t < 8; ++t) {
      ml::LabeledTrace trace;
      trace.malicious = label == 1;
      trace.name =
          (trace.malicious ? "attack-" : "benign-") + std::to_string(t);
      for (int i = 0; i < 30; ++i) trace.samples.push_back(sig.sample(rng));
      set.traces.push_back(std::move(trace));
    }
  }
  return set;
}

inline ml::MlpDetector engine_bench_detector() {
  return ml::MlpDetector::make_small_ann(engine_bench_corpus(0x5ca1e),
                                         0x5eed);
}

/// A populated feature plane over `n` synthetic processes (mixed
/// benign/attack signatures, window lengths 8-31), plus the per-column
/// scalar summaries — the fixture behind the batch_kernels and
/// sim_breakdown inference measurements.
struct BatchPlane {
  std::size_t n = 0;
  std::size_t stride = 0;
  std::vector<double> plane;  // [newest | mean | stddev] x stride
  std::vector<std::size_t> counts;
  std::vector<ml::WindowSummary> summaries;

  [[nodiscard]] ml::SummaryMatrixView view() const {
    ml::SummaryMatrixView v;
    v.newest = plane.data();
    v.mean = plane.data() + hpc::kFeatureDim * stride;
    v.stddev = plane.data() + 2 * hpc::kFeatureDim * stride;
    v.counts = counts.data();
    v.count = n;
    v.stride = stride;
    return v;
  }
};

inline BatchPlane make_batch_plane(std::size_t n) {
  util::Rng rng(0x91a9e);
  BatchPlane bp;
  bp.n = n;
  bp.stride = (n + 7) / 8 * 8;
  bp.plane.assign(3 * hpc::kFeatureDim * bp.stride, 0.0);
  bp.counts.assign(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    const hpc::HpcSignature sig = c % 4 == 1 ? engine_bench_attack_signature()
                                             : engine_bench_benign_signature();
    ml::WindowAccumulator acc;
    const std::size_t len = 8 + rng.below(24);
    for (std::size_t i = 0; i < len; ++i) acc.add(sig.sample(rng));
    double* col = bp.plane.data() + c;
    acc.store_plane_column(col, col + hpc::kFeatureDim * bp.stride,
                           col + 2 * hpc::kFeatureDim * bp.stride, bp.stride);
    bp.counts[c] = acc.count();
    bp.summaries.push_back(acc.summary());
  }
  return bp;
}

}  // namespace valkyrie::bench
