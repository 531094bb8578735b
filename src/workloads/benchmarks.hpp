// Benign benchmark programs (paper §VI-A): SPEC-2006, SPEC-2017 (rate and
// speed), SPECViewperf-13, STREAM, and multi-threaded SPEC-2017. 77
// single-threaded programs plus ten 4-thread programs, matching the paper's
// evaluated population.
//
// Each program is a synthetic workload with a characteristic HPC signature
// (IPC, miss rates, memory bandwidth, ...) drawn from published program
// behaviour classes. What matters for the reproduction is the *population
// structure*: most programs sit comfortably inside the benign feature
// distribution, while a few outliers (memory-bound mcf/lbm/STREAM,
// irregular blender_r) overlap attack signatures and draw false positives —
// blender_r is the paper's worst case at ~30% FP epochs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hpc/hpc.hpp"
#include "sim/workload.hpp"

namespace valkyrie::workloads {

/// Broad behaviour class a benchmark belongs to; drives its HPC signature.
enum class ProgramClass : std::uint8_t {
  kIntCpuBound,    // high IPC, low miss rates (gcc, perlbench, exchange2)
  kFpCpuBound,     // fp pipelines, moderate misses (namd, povray)
  kMemoryBound,    // low IPC, high LLC misses + bandwidth (mcf, lbm, STREAM)
  kIrregular,      // cache-hostile irregular access (blender, omnetpp, xalancbmk)
  kGraphics,       // SPECViewperf: fp + bandwidth mix
  kStreaming,      // STREAM kernels: pure bandwidth
};

struct BenchmarkSpec {
  std::string name;
  std::string suite;
  ProgramClass program_class = ProgramClass::kIntCpuBound;
  /// Epochs of work at full resources (program length).
  double epochs_of_work = 400.0;
  int threads = 1;
  /// For multi-threaded programs: how strongly barrier synchronisation
  /// amplifies a per-thread slowdown (0 = perfectly independent threads).
  double sync_penalty = 0.5;
  /// Extra per-program multiplicative jitter applied to the class signature
  /// so every program is distinct; derived deterministically from the name.
  double signature_jitter = 0.28;
  /// Outlier knob: pushes the signature towards attack-like regions of
  /// feature space (cache misses / bandwidth), raising its FP likelihood.
  double attack_likeness = 0.0;
  /// Probability an epoch is an I/O phase (checkpointing, input loading):
  /// file ops and page faults spike while compute drops. Per-measurement
  /// these epochs are genuinely confusable with a ransomware scan phase —
  /// the ambiguity that makes single-epoch detection imperfect (Fig. 1).
  double io_phase_prob = 0.12;
};

/// Materialises the HPC signature for a spec (deterministic in the name).
[[nodiscard]] hpc::HpcSignature make_signature(const BenchmarkSpec& spec);

/// A program's signature and its I/O-phase variant (benchmarks.cpp).
struct SignaturePair;

/// A benign program executing under the simulator.
class BenchmarkWorkload final : public sim::Workload {
 public:
  explicit BenchmarkWorkload(BenchmarkSpec spec);

  [[nodiscard]] std::string_view name() const override { return spec_.name; }
  [[nodiscard]] bool is_attack() const override { return false; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "work-epochs";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override;
  [[nodiscard]] double total_progress() const override { return progress_; }

  [[nodiscard]] const BenchmarkSpec& spec() const noexcept { return spec_; }
  /// Epochs of work remaining before natural completion.
  [[nodiscard]] double remaining_work() const noexcept {
    return spec_.epochs_of_work - progress_;
  }

  [[nodiscard]] std::string_view snapshot_type() const override {
    return "benchmark";
  }
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<sim::Workload> snapshot_load(util::ByteReader& in);

 private:
  BenchmarkSpec spec_;
  // One immutable pair per palette program (all_single_threaded and
  // spec2017_multithreaded), shared by every instance whose signature
  // fields match its palette entry; any other spec owns its pair. The
  // pair is a pure function of those fields, so sharing changes no bit.
  std::shared_ptr<const SignaturePair> signatures_;
  double progress_ = 0.0;
};

/// The I/O-phase variant of a program's signature: heavy VFS traffic and
/// faults, reduced compute.
[[nodiscard]] hpc::HpcSignature make_io_phase_signature(
    const hpc::HpcSignature& base);

// --- Suite registries -------------------------------------------------------

/// SPEC CPU2006: 12 integer + 17 floating-point programs.
[[nodiscard]] std::vector<BenchmarkSpec> spec2006();
/// SPEC CPU2017 rate: 10 integer + 13 floating-point programs.
[[nodiscard]] std::vector<BenchmarkSpec> spec2017_rate();
/// SPEC CPU2017 speed (single-threaded configuration): 12 programs.
[[nodiscard]] std::vector<BenchmarkSpec> spec2017_speed();
/// SPECViewperf 13: 9 viewsets.
[[nodiscard]] std::vector<BenchmarkSpec> viewperf13();
/// STREAM: copy, scale, add, triad.
[[nodiscard]] std::vector<BenchmarkSpec> stream();
/// Multi-threaded SPEC CPU2017 fp (4 threads each): 10 programs.
[[nodiscard]] std::vector<BenchmarkSpec> spec2017_multithreaded();

/// All 77 single-threaded programs, in suite order.
[[nodiscard]] std::vector<BenchmarkSpec> all_single_threaded();

}  // namespace valkyrie::workloads
