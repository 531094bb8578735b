#include "workloads/benchmarks.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "sim/resources.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace valkyrie::workloads {
namespace {

using hpc::Event;

/// FNV-1a hash of the program name: seeds per-program signature jitter so
/// every program is distinct yet deterministic across runs.
std::uint64_t name_hash(const std::string& name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Baseline per-epoch counter means for each program class. Counts are per
/// 100 ms epoch on a ~3.5 GHz core; the absolute scale only matters up to
/// the log1p compression, the ratios carry the class identity.
hpc::HpcSignature class_signature(ProgramClass cls) {
  hpc::HpcSignature s;
  constexpr double kCycles = 3.5e8;  // one epoch of one core
  s.at(Event::kCycles) = kCycles;
  s.at(Event::kContextSwitches) = 40;
  s.at(Event::kPageFaults) = 50;
  s.at(Event::kNetBytes) = 500;  // background chatter (NTP, telemetry)
  switch (cls) {
    case ProgramClass::kIntCpuBound:
      s.at(Event::kInstructions) = 2.2 * kCycles;
      s.at(Event::kL1dMisses) = 1.5e6;
      s.at(Event::kL1iMisses) = 4e5;
      s.at(Event::kLlcMisses) = 1e5;
      s.at(Event::kBranchMisses) = 2.5e6;
      s.at(Event::kDtlbMisses) = 8e4;
      s.at(Event::kMemBandwidth) = 2e7;
      s.at(Event::kFileOps) = 300;
      break;
    case ProgramClass::kFpCpuBound:
      s.at(Event::kInstructions) = 1.8 * kCycles;
      s.at(Event::kL1dMisses) = 3e6;
      s.at(Event::kL1iMisses) = 1.5e5;
      s.at(Event::kLlcMisses) = 4e5;
      s.at(Event::kBranchMisses) = 8e5;
      s.at(Event::kDtlbMisses) = 1.2e5;
      s.at(Event::kMemBandwidth) = 8e7;
      s.at(Event::kFileOps) = 150;
      break;
    case ProgramClass::kMemoryBound:
      s.at(Event::kInstructions) = 0.5 * kCycles;
      s.at(Event::kL1dMisses) = 1.8e7;
      s.at(Event::kL1iMisses) = 2e5;
      s.at(Event::kLlcMisses) = 7e6;
      s.at(Event::kBranchMisses) = 1.8e6;
      s.at(Event::kDtlbMisses) = 2.5e6;
      s.at(Event::kMemBandwidth) = 1.2e9;
      s.at(Event::kFileOps) = 200;
      break;
    case ProgramClass::kIrregular:
      s.at(Event::kInstructions) = 0.9 * kCycles;
      s.at(Event::kL1dMisses) = 1.2e7;
      s.at(Event::kL1iMisses) = 2.5e6;
      s.at(Event::kLlcMisses) = 2.5e6;
      s.at(Event::kBranchMisses) = 6e6;
      s.at(Event::kDtlbMisses) = 1.5e6;
      s.at(Event::kMemBandwidth) = 4e8;
      s.at(Event::kFileOps) = 800;
      break;
    case ProgramClass::kGraphics:
      s.at(Event::kInstructions) = 1.5 * kCycles;
      s.at(Event::kL1dMisses) = 6e6;
      s.at(Event::kL1iMisses) = 8e5;
      s.at(Event::kLlcMisses) = 1.5e6;
      s.at(Event::kBranchMisses) = 2e6;
      s.at(Event::kDtlbMisses) = 6e5;
      s.at(Event::kMemBandwidth) = 3e8;
      s.at(Event::kFileOps) = 400;
      break;
    case ProgramClass::kStreaming:
      s.at(Event::kInstructions) = 0.8 * kCycles;
      s.at(Event::kL1dMisses) = 2.5e7;
      s.at(Event::kL1iMisses) = 5e4;
      s.at(Event::kLlcMisses) = 1.5e7;
      s.at(Event::kBranchMisses) = 2e5;
      s.at(Event::kDtlbMisses) = 3e6;
      s.at(Event::kMemBandwidth) = 2.5e9;
      s.at(Event::kFileOps) = 50;
      break;
  }
  return s;
}

}  // namespace

hpc::HpcSignature make_signature(const BenchmarkSpec& spec) {
  hpc::HpcSignature s = class_signature(spec.program_class);
  util::Rng rng(name_hash(spec.name));
  for (double& m : s.mean) {
    m *= std::exp(spec.signature_jitter * rng.normal());
  }
  // Per-epoch measurement noise: HPC multiplexing on real PMUs is noisy.
  s.rel_stddev = std::max(s.rel_stddev, 0.2);
  if (spec.attack_likeness > 0.0) {
    // Push the cache events towards micro-architectural-attack territory:
    // very high L1/LLC/TLB miss rates *without* the streaming bandwidth
    // that would make the program look like ordinary memory-bound code.
    // This is what makes a handful of benign programs chronic
    // false-positive sources for the statistical detector.
    const double k = 1.0 + 4.0 * spec.attack_likeness;
    s.at(Event::kL1dMisses) *= k;
    s.at(Event::kLlcMisses) *= (1.0 + spec.attack_likeness);
    s.at(Event::kDtlbMisses) *= (1.0 + spec.attack_likeness);
    s.at(Event::kInstructions) /= (1.0 + spec.attack_likeness);
    // Long in-memory phases: almost no VFS traffic, which is precisely
    // what brings these programs near the spy/miner signature clusters.
    s.at(Event::kFileOps) /= k;
    // These programs are also phase-heavy (blender renders scene by
    // scene): their epochs swing together, so a sizeable fraction of
    // epochs crosses the anomaly threshold (blender_r: ~30% in the paper).
    s.correlated_noise += 0.45 * spec.attack_likeness;
  }
  if (spec.threads > 1) {
    // Counters are profiled per core, so the means stay comparable to a
    // single-threaded program — but thread interleaving and barrier skew
    // make both the per-event readings and the correlated interference
    // markedly noisier, which is why the multi-threaded suite draws more
    // false positives (paper: 6.7% average slowdown vs ~1%).
    s.rel_stddev = 0.32;
    s.correlated_noise = 0.40;
  }
  return s;
}

hpc::HpcSignature make_io_phase_signature(const hpc::HpcSignature& base) {
  hpc::HpcSignature io = base;
  io.at(Event::kInstructions) *= 0.6;
  io.at(Event::kFileOps) = 6e3;
  io.at(Event::kPageFaults) = 450;
  io.at(Event::kContextSwitches) *= 4.0;
  io.at(Event::kMemBandwidth) *= 1.5;
  io.rel_stddev = std::max(base.rel_stddev, 0.25);  // bursty by nature
  return io;
}

struct SignaturePair {
  hpc::HpcSignature signature;
  hpc::HpcSignature io;  // make_io_phase_signature(signature)
};

namespace {

std::shared_ptr<const SignaturePair> make_signature_pair(
    const BenchmarkSpec& spec) {
  const hpc::HpcSignature signature = make_signature(spec);
  return std::make_shared<const SignaturePair>(
      SignaturePair{signature, make_io_phase_signature(signature)});
}

/// Whether two specs have the same signature: make_signature reads only
/// these fields.
bool same_signature(const BenchmarkSpec& a, const BenchmarkSpec& b) {
  return a.name == b.name && a.program_class == b.program_class &&
         a.signature_jitter == b.signature_jitter &&
         a.attack_likeness == b.attack_likeness && a.threads == b.threads;
}

/// The shared pair of a palette program's spec, or a private one.
std::shared_ptr<const SignaturePair> signatures_for(const BenchmarkSpec& spec) {
  struct Entry {
    BenchmarkSpec spec;
    std::shared_ptr<const SignaturePair> pair;
  };
  static const std::unordered_map<std::string, Entry> palette = [] {
    std::unordered_map<std::string, Entry> table;
    for (auto suite : {all_single_threaded(), spec2017_multithreaded()}) {
      for (const BenchmarkSpec& entry : suite) {
        table.emplace(entry.name, Entry{entry, make_signature_pair(entry)});
      }
    }
    return table;
  }();
  const auto it = palette.find(spec.name);
  if (it != palette.end() && same_signature(it->second.spec, spec)) {
    return it->second.pair;
  }
  return make_signature_pair(spec);
}

}  // namespace

BenchmarkWorkload::BenchmarkWorkload(BenchmarkSpec spec)
    : spec_(std::move(spec)), signatures_(signatures_for(spec_)) {}

sim::StepResult BenchmarkWorkload::run_epoch(const sim::ResourceShares& shares,
                                             sim::EpochContext& ctx) {
  double activity = sim::cpu_progress_multiplier(shares.cpu) *
                    sim::memory_progress_multiplier(shares.mem);
  if (spec_.threads > 1) {
    // Barrier synchronisation: when the process group is throttled, threads
    // stall at barriers waiting for descheduled siblings, so progress falls
    // *more* than the raw share reduction (paper: 6.7% average for
    // multi-threaded vs ~1% single-threaded under the same FP pattern).
    activity *= (1.0 - spec_.sync_penalty * (1.0 - activity));
  }
  activity = std::clamp(activity, 0.0, 1.0);

  sim::StepResult out;
  const double remaining = spec_.epochs_of_work - progress_;
  const double done = std::min(activity, remaining);
  progress_ += done;
  out.progress = done;
  out.finished = progress_ >= spec_.epochs_of_work;
  const bool io_phase = ctx.rng->chance(spec_.io_phase_prob);
  out.hpc = (io_phase ? signatures_->io : signatures_->signature)
                .sample(*ctx.rng, activity, ctx.hpc_noise);
  return out;
}

namespace {

BenchmarkSpec make(std::string name, std::string suite, ProgramClass cls,
                   double epochs, double attack_likeness = 0.0) {
  BenchmarkSpec s;
  s.name = std::move(name);
  s.suite = std::move(suite);
  s.program_class = cls;
  s.epochs_of_work = epochs;
  s.attack_likeness = attack_likeness;
  return s;
}

}  // namespace

std::vector<BenchmarkSpec> spec2006() {
  using PC = ProgramClass;
  const std::string suite = "SPEC-2006";
  return {
      make("perlbench", suite, PC::kIntCpuBound, 380),
      make("bzip2", suite, PC::kIntCpuBound, 340),
      make("gcc", suite, PC::kIrregular, 300, 0.05),
      make("mcf", suite, PC::kMemoryBound, 420, 0.14),
      make("gobmk", suite, PC::kIntCpuBound, 360),
      make("hmmer", suite, PC::kIntCpuBound, 330),
      make("sjeng", suite, PC::kIntCpuBound, 400),
      make("libquantum", suite, PC::kStreaming, 350, 0.04),
      make("h264ref", suite, PC::kIntCpuBound, 390),
      make("omnetpp", suite, PC::kIrregular, 370, 0.12),
      make("astar", suite, PC::kIrregular, 350, 0.06),
      make("xalancbmk", suite, PC::kIrregular, 320, 0.10),
      make("bwaves", suite, PC::kFpCpuBound, 430),
      make("gamess", suite, PC::kFpCpuBound, 410),
      make("milc", suite, PC::kMemoryBound, 380, 0.14),
      make("zeusmp", suite, PC::kFpCpuBound, 400),
      make("gromacs", suite, PC::kFpCpuBound, 360),
      make("cactusADM", suite, PC::kFpCpuBound, 420),
      make("leslie3d", suite, PC::kMemoryBound, 390, 0.08),
      make("namd", suite, PC::kFpCpuBound, 370),
      make("dealII", suite, PC::kFpCpuBound, 350),
      make("soplex", suite, PC::kMemoryBound, 330, 0.10),
      make("povray", suite, PC::kFpCpuBound, 340),
      make("calculix", suite, PC::kFpCpuBound, 410),
      make("GemsFDTD", suite, PC::kMemoryBound, 400, 0.10),
      make("tonto", suite, PC::kFpCpuBound, 360),
      make("lbm", suite, PC::kStreaming, 380, 0.09),
      make("wrf", suite, PC::kFpCpuBound, 430),
      make("sphinx3", suite, PC::kFpCpuBound, 350),
  };
}

std::vector<BenchmarkSpec> spec2017_rate() {
  using PC = ProgramClass;
  const std::string suite = "SPEC-2017";
  return {
      make("perlbench_r", suite, PC::kIntCpuBound, 400),
      make("gcc_r", suite, PC::kIrregular, 380, 0.05),
      make("mcf_r", suite, PC::kMemoryBound, 420, 0.13),
      make("omnetpp_r", suite, PC::kIrregular, 390, 0.12),
      make("xalancbmk_r", suite, PC::kIrregular, 360, 0.10),
      make("x264_r", suite, PC::kIntCpuBound, 340),
      make("deepsjeng_r", suite, PC::kIntCpuBound, 400),
      make("leela_r", suite, PC::kIntCpuBound, 420),
      make("exchange2_r", suite, PC::kIntCpuBound, 380),
      make("xz_r", suite, PC::kIrregular, 350, 0.08),
      make("bwaves_r", suite, PC::kFpCpuBound, 450),
      make("cactuBSSN_r", suite, PC::kFpCpuBound, 430),
      make("namd_r", suite, PC::kFpCpuBound, 390),
      make("parest_r", suite, PC::kFpCpuBound, 400),
      make("povray_r", suite, PC::kFpCpuBound, 370),
      make("lbm_r", suite, PC::kStreaming, 390, 0.09),
      make("wrf_r", suite, PC::kFpCpuBound, 440),
      // The paper's worst single-threaded case: falsely classified in ~30%
      // of epochs, capped at a 25% slowdown by Valkyrie (Fig. 5 discussion).
      make("blender_r", suite, PC::kStreaming, 410, 0.20),
      make("cam4_r", suite, PC::kFpCpuBound, 420),
      make("imagick_r", suite, PC::kFpCpuBound, 380),
      make("nab_r", suite, PC::kFpCpuBound, 360),
      make("fotonik3d_r", suite, PC::kMemoryBound, 400, 0.10),
      make("roms_r", suite, PC::kFpCpuBound, 410),
  };
}

std::vector<BenchmarkSpec> spec2017_speed() {
  using PC = ProgramClass;
  const std::string suite = "SPEC-2017-speed";
  return {
      make("perlbench_s", suite, PC::kIntCpuBound, 420),
      make("gcc_s", suite, PC::kIrregular, 400, 0.05),
      make("mcf_s", suite, PC::kMemoryBound, 440, 0.13),
      make("omnetpp_s", suite, PC::kIrregular, 410, 0.12),
      make("xalancbmk_s", suite, PC::kIrregular, 380, 0.10),
      make("x264_s", suite, PC::kIntCpuBound, 360),
      make("deepsjeng_s", suite, PC::kIntCpuBound, 420),
      make("leela_s", suite, PC::kIntCpuBound, 440),
      make("exchange2_s", suite, PC::kIntCpuBound, 400),
      make("xz_s", suite, PC::kIrregular, 370, 0.08),
      make("bwaves_s", suite, PC::kFpCpuBound, 470),
      make("lbm_s", suite, PC::kStreaming, 410),
  };
}

std::vector<BenchmarkSpec> viewperf13() {
  using PC = ProgramClass;
  const std::string suite = "SPECViewperf-13";
  return {
      make("3dsmax-06", suite, PC::kGraphics, 280),
      make("catia-05", suite, PC::kGraphics, 300),
      make("creo-02", suite, PC::kGraphics, 290),
      make("energy-02", suite, PC::kGraphics, 320, 0.08),
      make("maya-05", suite, PC::kGraphics, 280),
      make("medical-02", suite, PC::kGraphics, 310, 0.06),
      make("showcase-02", suite, PC::kGraphics, 270),
      make("snx-03", suite, PC::kGraphics, 300),
      make("sw-04", suite, PC::kGraphics, 290),
  };
}

std::vector<BenchmarkSpec> stream() {
  using PC = ProgramClass;
  const std::string suite = "STREAM";
  std::vector<BenchmarkSpec> specs = {
      make("stream-copy", suite, PC::kStreaming, 200, 0.05),
      make("stream-scale", suite, PC::kStreaming, 200, 0.05),
      make("stream-add", suite, PC::kStreaming, 210, 0.06),
      make("stream-triad", suite, PC::kStreaming, 210, 0.06),
  };
  // The four kernels are nearly identical five-line loops; they sit much
  // closer to their class mean than full applications do.
  for (BenchmarkSpec& s : specs) s.signature_jitter = 0.12;
  return specs;
}

std::vector<BenchmarkSpec> spec2017_multithreaded() {
  using PC = ProgramClass;
  const std::string suite = "SPEC-2017-mt";
  std::vector<BenchmarkSpec> specs = {
      make("bwaves_s_mt", suite, PC::kFpCpuBound, 460),
      make("cactuBSSN_s_mt", suite, PC::kFpCpuBound, 440),
      make("lbm_s_mt", suite, PC::kStreaming, 400, 0.09),
      make("wrf_s_mt", suite, PC::kFpCpuBound, 450),
      make("cam4_s_mt", suite, PC::kFpCpuBound, 430),
      make("pop2_s_mt", suite, PC::kFpCpuBound, 420),
      make("imagick_s_mt", suite, PC::kFpCpuBound, 390),
      make("nab_s_mt", suite, PC::kFpCpuBound, 370),
      make("fotonik3d_s_mt", suite, PC::kMemoryBound, 410, 0.10),
      make("roms_s_mt", suite, PC::kFpCpuBound, 420),
  };
  for (BenchmarkSpec& s : specs) s.threads = 4;
  return specs;
}

std::vector<BenchmarkSpec> all_single_threaded() {
  std::vector<BenchmarkSpec> all;
  for (auto suite : {spec2006(), spec2017_rate(), spec2017_speed(),
                     viewperf13(), stream()}) {
    all.insert(all.end(), suite.begin(), suite.end());
  }
  return all;
}

void BenchmarkWorkload::snapshot_save(util::ByteWriter& out) const {
  out.str(spec_.name);
  out.str(spec_.suite);
  out.u8(static_cast<std::uint8_t>(spec_.program_class));
  out.f64(spec_.epochs_of_work);
  out.i64(spec_.threads);
  out.f64(spec_.sync_penalty);
  out.f64(spec_.signature_jitter);
  out.f64(spec_.attack_likeness);
  out.f64(spec_.io_phase_prob);
  out.f64(progress_);
}

std::unique_ptr<sim::Workload> BenchmarkWorkload::snapshot_load(
    util::ByteReader& in) {
  BenchmarkSpec spec;
  spec.name = in.str();
  spec.suite = in.str();
  spec.program_class = static_cast<ProgramClass>(in.u8());
  spec.epochs_of_work = in.f64();
  spec.threads = static_cast<int>(in.i64());
  spec.sync_penalty = in.f64();
  spec.signature_jitter = in.f64();
  spec.attack_likeness = in.f64();
  spec.io_phase_prob = in.f64();
  // The signatures are pure functions of the spec; the constructor
  // rebuilds them bit-identically.
  auto out = std::make_unique<BenchmarkWorkload>(std::move(spec));
  out->progress_ = in.f64();
  return out;
}

}  // namespace valkyrie::workloads
