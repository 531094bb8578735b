#include "dram/dram.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/serial.hpp"

namespace valkyrie::dram {
namespace {

const char* config_error(const DramConfig& c) {
  if (c.banks < 1 || c.rows_per_bank < 3) {
    return "dram: need at least 1 bank of 3 rows";
  }
  if (static_cast<std::uint64_t>(c.banks) * c.rows_per_bank > kMaxRows) {
    return "dram: banks x rows exceeds kMaxRows";
  }
  if (!(std::isfinite(c.t_rc_ns) && c.t_rc_ns > 0.0)) {
    return "dram: t_rc_ns must be finite and > 0";
  }
  // A window at least one row cycle long keeps the window ordinal, which
  // grows by at most one per activation, far from the end of its range.
  const double window_ns = c.refresh_interval_ms * 1e6;
  if (!(std::isfinite(window_ns) && window_ns >= c.t_rc_ns)) {
    return "dram: the refresh window must be finite and >= t_rc_ns";
  }
  if (!(c.flip_prob_per_excess >= 0.0 && c.flip_prob_per_excess <= 1.0)) {
    return "dram: flip_prob_per_excess must be in [0, 1]";
  }
  return nullptr;
}

/// The first clock value advance() maps past `window`: the smallest double x
/// with static_cast<uint64_t>(x / window_ns) > window (for a clock that
/// starts inside `window`, the same as advance()'s `!=`). The rounded
/// product lands within an ulp or two of it; the corrections step with
/// advance()'s own expression, so `clock >= first_clock_past(...)` turns
/// true on exactly the activation whose divide changes the window.
double first_clock_past(std::uint64_t window, double window_ns) {
  const auto past = [&](double x) {
    return static_cast<std::uint64_t>(x / window_ns) > window;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double x = static_cast<double>(window + 1) * window_ns;
  while (std::isfinite(x) && !past(x)) x = std::nextafter(x, kInf);
  if (!std::isfinite(x)) return kInf;
  for (double below = std::nextafter(x, 0.0); below > 0.0 && past(below);
       below = std::nextafter(x, 0.0)) {
    x = below;
  }
  return x;
}

}  // namespace

Dram::Dram(const DramConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  if (const char* error = config_error(config)) {
    throw std::invalid_argument(error);
  }
  disturbance_.resize(static_cast<std::size_t>(config.banks) *
                      config.rows_per_bank);
}

void Dram::advance(double ns) noexcept {
  now_ns_ += ns;
  const double window_ns = config_.refresh_interval_ms * 1e6;
  const auto target_window = static_cast<std::uint64_t>(now_ns_ / window_ns);
  if (target_window != window_) {
    // One or more refresh intervals elapsed: all counters reset. (Real DRAM
    // staggers per-row refresh across the interval; the end effect for the
    // hammering-rate threshold is the same.)
    window_ = target_window;
    std::fill(disturbance_.begin(), disturbance_.end(), 0);
  }
}

void Dram::disturb(std::uint32_t bank, std::uint32_t row) {
  const std::size_t idx =
      static_cast<std::size_t>(bank) * config_.rows_per_bank + row;
  const std::uint64_t count = ++disturbance_[idx];
  if (count > config_.disturbance_threshold &&
      rng_.chance(config_.flip_prob_per_excess)) {
    flips_.push_back({bank, row, window_});
  }
}

void Dram::activate(std::uint32_t bank, std::uint32_t row) {
  assert(bank < config_.banks && row < config_.rows_per_bank);
  advance(config_.t_rc_ns);
  ++activations_;
  if (row > 0) disturb(bank, row - 1);
  if (row + 1 < config_.rows_per_bank) disturb(bank, row + 1);
}

void Dram::hammer(std::uint32_t bank, std::uint32_t row_a, std::uint32_t row_b,
                  std::uint64_t count) {
  if (bank >= config_.banks || row_a >= config_.rows_per_bank ||
      row_b >= config_.rows_per_bank) {
    throw std::out_of_range("dram: hammer outside the geometry");
  }
  std::uint64_t* const bank_rows =
      disturbance_.data() +
      static_cast<std::size_t>(bank) * config_.rows_per_bank;

  // The rows each aggressor disturbs, in activate()'s order: row - 1, then
  // row + 1, each pointing at its counter in the table, so rows disturbed
  // by both aggressors share one and a window change resets it. An edge
  // aggressor's missing neighbour counts into a spare whose threshold no
  // count exceeds, so it never draws.
  struct Neighbour {
    std::uint64_t* counter;
    std::uint32_t row;
    std::uint64_t threshold;
  };
  std::uint64_t spare = 0;
  const auto neighbour = [&](std::uint32_t aggressor, bool lower) {
    if (lower ? aggressor == 0 : aggressor + 1 == config_.rows_per_bank) {
      return Neighbour{&spare, 0, std::numeric_limits<std::uint64_t>::max()};
    }
    const std::uint32_t row = lower ? aggressor - 1 : aggressor + 1;
    return Neighbour{bank_rows + row, row, config_.disturbance_threshold};
  };
  const std::array<Neighbour, 4> hit = {
      neighbour(row_a, true), neighbour(row_a, false), neighbour(row_b, true),
      neighbour(row_b, false)};

  // chance(p) is `(x >> 11) * 2^-53 < p`. Scaling by a power of two is
  // exact, so that is `(x >> 11) < p * 2^53` over the reals, and for an
  // integer left side `< ceil(p * 2^53)`; p in [0, 1] keeps the bound in
  // [0, 2^53].
  const auto flip_below = static_cast<std::uint64_t>(
      std::ceil(config_.flip_prob_per_excess * 0x1p53));
  const double t_rc = config_.t_rc_ns;
  const double window_ns = config_.refresh_interval_ms * 1e6;
  double next_window = first_clock_past(window_, window_ns);
  const std::uint64_t activations_before = activations_;
  util::Rng rng = rng_;
  double now = now_ns_;
  const auto publish = [&](std::uint64_t done) {
    rng_ = rng;
    now_ns_ = now;
    activations_ = activations_before + done;
  };

  for (std::uint64_t i = 0; i < count; ++i) {
    now += t_rc;
    if (now >= next_window) {
      window_ = static_cast<std::uint64_t>(now / window_ns);
      std::fill(disturbance_.begin(), disturbance_.end(), 0);
      next_window = first_clock_past(window_, window_ns);
    }
    const Neighbour* pair = &hit[2 * (i & 1)];
    for (int k = 0; k < 2; ++k) {
      const Neighbour& n = pair[k];
      if (++*n.counter > n.threshold && (rng() >> 11) < flip_below) {
        // The log is the one thing that can throw: publish first, so a
        // failed append leaves the model where activate() would.
        publish(i + 1);
        flips_.push_back({bank, n.row, window_});
      }
    }
  }
  publish(count);
}

void Dram::idle_ns(double ns) noexcept { advance(ns); }

void Dram::snapshot_save(util::ByteWriter& out) const {
  for (const std::uint64_t word : rng_.state()) out.u64(word);
  out.f64(now_ns_);
  out.u64(window_);
  out.u64(activations_);
  // The disturbance table is banks x rows but only rows touched in the
  // current refresh window are nonzero — store those as (index, count).
  std::uint64_t nonzero = 0;
  for (const std::uint64_t v : disturbance_) nonzero += v != 0 ? 1 : 0;
  out.u64(nonzero);
  for (std::size_t i = 0; i < disturbance_.size(); ++i) {
    if (disturbance_[i] != 0) {
      out.u64(i);
      out.u64(disturbance_[i]);
    }
  }
  out.u64(flips_.size());
  for (const FlipRecord& flip : flips_) {
    out.u32(flip.bank);
    out.u32(flip.row);
    out.u64(flip.window);
  }
}

void Dram::snapshot_restore(util::ByteReader& in) {
  const auto malformed = [](const char* what) {
    return util::SerialError(util::SerialError::Code::kMalformed, what);
  };
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& word : rng_state) word = in.u64();
  const double now_ns = in.f64();
  const std::uint64_t window = in.u64();
  // Bounding the quotient first keeps the conversion defined.
  const double windows = now_ns / (config_.refresh_interval_ms * 1e6);
  if (!(std::isfinite(now_ns) && now_ns >= 0.0 && windows < 0x1p63) ||
      static_cast<std::uint64_t>(windows) != window) {
    throw malformed("dram: clock is not finite, non-negative and in window");
  }
  rng_.set_state(rng_state);
  now_ns_ = now_ns;
  window_ = window;
  activations_ = in.u64();
  std::fill(disturbance_.begin(), disturbance_.end(), 0);
  const std::size_t nonzero = in.length(16);
  std::uint64_t next_index = 0;
  for (std::size_t i = 0; i < nonzero; ++i) {
    const std::uint64_t index = in.u64();
    const std::uint64_t value = in.u64();
    if (index < next_index || index >= disturbance_.size() || value == 0) {
      throw malformed("dram: disturbance entries out of order or out of range");
    }
    disturbance_[index] = value;
    next_index = index + 1;
  }
  const std::size_t flips = in.length(16);
  flips_.clear();
  flips_.reserve(flips);
  for (std::size_t i = 0; i < flips; ++i) {
    FlipRecord flip{};
    flip.bank = in.u32();
    flip.row = in.u32();
    flip.window = in.u64();
    if (flip.bank >= config_.banks || flip.row >= config_.rows_per_bank) {
      throw malformed("dram: flip outside the geometry");
    }
    flips_.push_back(flip);
  }
}

}  // namespace valkyrie::dram
