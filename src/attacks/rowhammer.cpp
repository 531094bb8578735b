#include "attacks/rowhammer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "attacks/signatures.hpp"
#include "sim/resources.hpp"
#include "util/serial.hpp"

namespace valkyrie::attacks {
namespace {

/// The attacker's own fields and the epoch work they size; the Dram
/// constructor checks the geometry and timings before it allocates the table.
const RowhammerConfig& checked(const RowhammerConfig& c) {
  const auto refuse = [](const char* what) {
    throw std::invalid_argument(std::string("rowhammer: ") + what);
  };
  if (c.bank >= c.dram.banks) refuse("bank outside the geometry");
  // In 64 bits, so a victim row near 2^32 cannot wrap into range.
  if (c.victim_row < 1 ||
      std::uint64_t{c.victim_row} + 2 > c.dram.rows_per_bank) {
    refuse("victim row needs an aggressor row on each side");
  }
  if (!(c.slice_ms >= kMinSliceMs && c.slice_ms <= kMaxSliceMs)) {
    refuse("slice_ms outside [kMinSliceMs, kMaxSliceMs]");
  }
  if (!(c.dram.t_rc_ns >= kMinRowCycleNs)) {
    refuse("t_rc_ns below kMinRowCycleNs");
  }
  return c;
}

}  // namespace

RowhammerAttack::RowhammerAttack(RowhammerConfig config)
    : config_(checked(config)),
      signature_(rowhammer_signature()),
      dram_(config.dram, config.dram_seed) {}

sim::StepResult RowhammerAttack::run_epoch(const sim::ResourceShares& shares,
                                           sim::EpochContext& ctx) {
  const double s = sim::cpu_progress_multiplier(shares.cpu) *
                   sim::memory_progress_multiplier(shares.mem);
  const std::uint64_t flips_before = dram_.total_bit_flips();

  // Interleave active and idle time across the epoch in scheduler-slice
  // units; within an active slice the hammer loop activates the two
  // aggressor rows back to back at the row-cycle rate.
  const auto slices = static_cast<std::uint64_t>(
      std::clamp(std::round(ctx.epoch_ms / config_.slice_ms), 1.0, 0x1p32));
  const double slice_ns = config_.slice_ms * 1e6;
  const auto acts_per_active_slice = static_cast<std::uint64_t>(
      slice_ns / config_.dram.t_rc_ns);

  double run_credit = 0.0;
  const std::uint32_t above = config_.victim_row - 1;
  const std::uint32_t below = config_.victim_row + 1;
  for (std::uint64_t slice = 0; slice < slices; ++slice) {
    run_credit += s;
    if (run_credit >= 1.0) {
      run_credit -= 1.0;
      dram_.hammer(config_.bank, above, below, acts_per_active_slice);
      iterations_ += acts_per_active_slice / 2;  // one iteration = one pair
    } else {
      dram_.idle_ns(slice_ns);
    }
  }

  sim::StepResult out;
  out.progress = static_cast<double>(dram_.total_bit_flips() - flips_before);
  out.hpc = signature_.sample(*ctx.rng, std::max(s, 0.0), ctx.hpc_noise);
  return out;
}

void RowhammerAttack::snapshot_save(util::ByteWriter& out) const {
  out.u32(config_.dram.banks);
  out.u32(config_.dram.rows_per_bank);
  out.f64(config_.dram.t_rc_ns);
  out.f64(config_.dram.refresh_interval_ms);
  out.u64(config_.dram.disturbance_threshold);
  out.f64(config_.dram.flip_prob_per_excess);
  out.u32(config_.victim_row);
  out.u32(config_.bank);
  out.f64(config_.slice_ms);
  out.u64(config_.dram_seed);
  out.u64(iterations_);
  dram_.snapshot_save(out);
}

std::unique_ptr<sim::Workload> RowhammerAttack::snapshot_load(
    util::ByteReader& in) {
  RowhammerConfig config;
  config.dram.banks = in.u32();
  config.dram.rows_per_bank = in.u32();
  config.dram.t_rc_ns = in.f64();
  config.dram.refresh_interval_ms = in.f64();
  config.dram.disturbance_threshold = in.u64();
  config.dram.flip_prob_per_excess = in.f64();
  config.victim_row = in.u32();
  config.bank = in.u32();
  config.slice_ms = in.f64();
  config.dram_seed = in.u64();
  auto out = std::make_unique<RowhammerAttack>(config);
  out->iterations_ = in.u64();
  out->dram_.snapshot_restore(in);
  return out;
}

}  // namespace valkyrie::attacks
