// Rowhammer attack workload (Kim et al., ISCA 2014; the open-source Google
// rowhammer test the paper uses) — Fig. 6a.
//
// A double-sided hammer: the attacker alternates activations of the two
// rows adjacent to a victim row (with cache flushes folded into the DRAM
// model's activation stream). Activity is interleaved across the epoch at
// millisecond granularity, exactly how CFS timeslicing spreads a throttled
// process, because what matters for disturbance is the activation count
// *inside each 64 ms refresh window*: cut the CPU share far enough and no
// window ever crosses the disturbance threshold — zero flips, a 100%
// slowdown, which is how Valkyrie defeats the attack outright.
#pragma once

#include <memory>
#include <cstdint>

#include "dram/dram.hpp"
#include "sim/workload.hpp"

namespace valkyrie::attacks {

/// Bounds on the fields that size a rowhammer epoch's work. Slices of at
/// least kMinSliceMs (half the shortest in-tree slice, 1 ms) and a row cycle
/// of at least kMinRowCycleNs (about half the shortest in-tree tRC, 48.7 ns;
/// every DDR3-DDR5 part's is above 40 ns) let an epoch of E ms hold at most
/// E / kMinSliceMs slices and max(E, kMaxSliceMs) / kMinRowCycleNs
/// activations: 200 and 4M at the default 100 ms epoch, twice the default
/// config's. kMaxSliceMs is the default epoch.
inline constexpr double kMinSliceMs = 0.5;
inline constexpr double kMaxSliceMs = 100.0;
inline constexpr double kMinRowCycleNs = 25.0;

struct RowhammerConfig {
  dram::DramConfig dram{};
  /// Victim row being hammered (aggressors are victim ± 1).
  std::uint32_t victim_row = 4096;
  std::uint32_t bank = 0;
  /// Scheduling granularity at which active/idle time interleaves.
  double slice_ms = 1.0;
  std::uint64_t dram_seed = 0x40a3;
};

class RowhammerAttack final : public sim::Workload {
 public:
  /// Throws std::invalid_argument unless the DRAM config passes the Dram
  /// constructor's checks, bank < banks, 1 <= victim_row <= rows - 2 (both
  /// aggressors exist), slice_ms is in [kMinSliceMs, kMaxSliceMs] and
  /// t_rc_ns >= kMinRowCycleNs. It throws before the DRAM table is
  /// allocated, so a payload carrying such a config is refused as cheaply
  /// (WorkloadRegistry::load reports it as SerialError{kMalformed}).
  explicit RowhammerAttack(RowhammerConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "rowhammer"; }
  [[nodiscard]] bool is_attack() const override { return true; }
  [[nodiscard]] std::string_view progress_units() const override {
    return "bit flips";
  }
  sim::StepResult run_epoch(const sim::ResourceShares& shares,
                            sim::EpochContext& ctx) override;
  [[nodiscard]] double total_progress() const override {
    return static_cast<double>(dram_.total_bit_flips());
  }

  [[nodiscard]] const dram::Dram& dram() const noexcept { return dram_; }
  [[nodiscard]] std::uint64_t hammer_iterations() const noexcept {
    return iterations_;
  }

  [[nodiscard]] std::string_view snapshot_type() const override {
    return "attack.rowhammer";
  }
  void snapshot_save(util::ByteWriter& out) const override;
  static std::unique_ptr<sim::Workload> snapshot_load(util::ByteReader& in);

 private:
  RowhammerConfig config_;
  hpc::HpcSignature signature_;
  dram::Dram dram_;
  std::uint64_t iterations_ = 0;
};

}  // namespace valkyrie::attacks
