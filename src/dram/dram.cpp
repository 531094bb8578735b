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

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return b > kNever - a ? kNever : a + b;
}

/// The first activation index at or after `i` with parity `p`.
std::uint64_t next_with_parity(std::uint64_t i, std::uint64_t p) {
  return saturating_add(i, (i & 1) ^ p);
}

/// How many activation indices in [from, to) have parity `p`.
std::uint64_t parity_count(std::uint64_t p, std::uint64_t from,
                           std::uint64_t to) {
  const auto below = [p](std::uint64_t n) { return p == 0 ? n - n / 2 : n / 2; };
  return below(to) - below(from);
}

/// Restored counters stay below this: a window would need 2^63 activations
/// to reach it, so a counter never wraps and hammer()'s phase plan, which
/// takes a counter at or past the threshold to draw on every disturbance,
/// agrees with activate().
constexpr std::uint64_t kCounterLimit = std::uint64_t{1} << 63;

}  // namespace

Dram::Dram(const DramConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  if (const char* error = config_error(config)) {
    throw std::invalid_argument(error);
  }
  disturbance_.resize(static_cast<std::size_t>(config.banks) *
                      config.rows_per_bank);
}

void Dram::touch(std::size_t index) noexcept {
  if (dirty_begin_ == dirty_end_) {
    dirty_begin_ = index;
    dirty_end_ = index + 1;
  } else {
    dirty_begin_ = std::min(dirty_begin_, index);
    dirty_end_ = std::max(dirty_end_, index + 1);
  }
}

void Dram::clear_disturbance() noexcept {
  std::fill(disturbance_.data() + dirty_begin_,
            disturbance_.data() + dirty_end_, 0);
  dirty_begin_ = 0;
  dirty_end_ = 0;
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
    clear_disturbance();
  }
}

void Dram::disturb(std::uint32_t bank, std::uint32_t row) {
  const std::size_t idx =
      static_cast<std::size_t>(bank) * config_.rows_per_bank + row;
  const std::uint64_t count = ++disturbance_[idx];
  if (count == 1) touch(idx);
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

  // Activation i opens row_a when i is even and row_b when it is odd, and
  // disturbs the open row's lower neighbour, then its upper one: step
  // j = 2 * (i & 1) + k, k = 0 below and 1 above, of a two-activation
  // cycle. An edge row's missing neighbour is no step. Two steps of the
  // cycle disturb the same row only from activations of opposite parity
  // (the row between the aggressors, or a row opened by both), and such a
  // shared counter takes one increment per activation.
  struct Step {
    bool present = false;
    bool shared = false;
    std::uint32_t row = 0;
    std::uint64_t* counter = nullptr;
    std::uint64_t base = 0;  // the counter at the phase start
  };
  std::array<Step, 4> steps;
  for (std::size_t j = 0; j < steps.size(); ++j) {
    const std::uint32_t open = j < 2 ? row_a : row_b;
    const bool lower = (j & 1) == 0;
    if (lower ? open == 0 : open + 1 == config_.rows_per_bank) continue;
    steps[j].present = true;
    steps[j].row = lower ? open - 1 : open + 1;
    steps[j].counter = disturbance_.data() +
                       static_cast<std::size_t>(bank) * config_.rows_per_bank +
                       steps[j].row;
  }
  for (std::size_t j = 0; j < steps.size(); ++j) {
    for (std::size_t other = 0; other < steps.size(); ++other) {
      steps[j].shared |= other != j && steps[j].present &&
                         steps[other].present &&
                         steps[other].row == steps[j].row;
    }
  }

  // chance(p) is `(x >> 11) * 2^-53 < p`. Scaling by a power of two is
  // exact, so that is `(x >> 11) < p * 2^53` over the reals, and for an
  // integer left side `< ceil(p * 2^53)`; p in [0, 1] keeps the bound in
  // [0, 2^53].
  const auto flip_below = static_cast<std::uint64_t>(
      std::ceil(config_.flip_prob_per_excess * 0x1p53));
  const std::uint64_t threshold = config_.disturbance_threshold;
  const double t_rc = config_.t_rc_ns;
  const double window_ns = config_.refresh_interval_ms * 1e6;
  double next_window = first_clock_past(window_, window_ns);
  const std::uint64_t activations_before = activations_;
  std::array<std::uint64_t, 4> rng = rng_.state();
  double now = now_ns_;

  // The phase being run: its first activation, and the steps each parity
  // draws for, in step order.
  std::uint64_t phase = 0;
  std::array<std::array<std::size_t, 2>, 2> draws{};
  std::array<int, 2> draw_count{};

  // Writes every counter as it stands once activation `at` has taken its
  // first `done` steps (0-2).
  const auto store = [&](std::uint64_t at, std::uint64_t done) {
    for (Step& step : steps) {
      if (!step.present) continue;
      std::uint64_t value = step.base;
      for (std::size_t hit = 0; hit < steps.size(); ++hit) {
        if (!steps[hit].present || steps[hit].row != step.row) continue;
        const std::uint64_t p = hit >> 1;
        value += parity_count(p, phase, at) +
                 ((at & 1) == p && (hit & 1) < done ? 1 : 0);
      }
      if (value != 0) {
        touch(static_cast<std::size_t>(step.counter - disturbance_.data()));
      }
      *step.counter = value;
    }
  };
  // The log is the one thing that can throw: publish first, so a failed
  // append leaves the model where activate() would.
  const auto flip = [&](std::uint64_t at, std::size_t j,
                        std::array<std::uint64_t, 4> words,
                        double clock) __attribute__((noinline)) {
    rng_.set_state(words);
    now_ns_ = clock;
    activations_ = activations_before + at + 1;
    store(at, (j & 1) + 1);
    flips_.push_back({bank, steps[j].row, window_});
  };
  // Activation i taking `n` draws; false, with the clock untouched, when it
  // would open a new window.
  std::uint64_t i = 0;
  const auto activation = [&](int n) {
    const double before = now;
    now += t_rc;
    if (now >= next_window) {
      now = before;
      return false;
    }
    if (n > 0 && (util::Rng::xoshiro_next(rng) >> 11) < flip_below)
        [[unlikely]] {
      flip(i, draws[i & 1][0], rng, now);
    }
    if (n > 1 && (util::Rng::xoshiro_next(rng) >> 11) < flip_below)
        [[unlikely]] {
      flip(i, draws[i & 1][1], rng, now);
    }
    return true;
  };

  while (i < count) {
    // Plan a phase from activation i. Inside a window a counter only one
    // step touches gains one per two activations and a shared one one per
    // activation, so the activation whose increment first takes a counter
    // past the threshold is known: each step draws from the first
    // activation of its parity at or after it, and the phase ends where
    // the next step starts drawing.
    phase = i;
    std::uint64_t end = count;
    draw_count = {};
    for (std::size_t j = 0; j < steps.size(); ++j) {
      Step& step = steps[j];
      if (!step.present) continue;
      step.base = *step.counter;
      const std::uint64_t p = j >> 1;
      const std::uint64_t wait =
          step.base >= threshold ? 0 : threshold - step.base;
      const std::uint64_t crossing =
          step.shared ? saturating_add(i, wait)
                      : saturating_add(next_with_parity(i, p),
                                       saturating_add(wait, wait));
      const std::uint64_t first = next_with_parity(crossing, p);
      if (first - i < 2) {
        draws[p][draw_count[p]++] = j;
      } else {
        end = std::min(end, first);
      }
    }

    while (i < end && activation(draw_count[i & 1])) ++i;
    if (i < end) {
      // Activation i opens a new window: the counters restart from zero.
      window_ = static_cast<std::uint64_t>((now + t_rc) / window_ns);
      clear_disturbance();
      next_window = first_clock_past(window_, window_ns);
    } else {
      store(i, 0);
    }
  }
  rng_.set_state(rng);
  now_ns_ = now;
  activations_ = activations_before + count;
}

void Dram::idle_ns(double ns) noexcept { advance(ns); }

void Dram::snapshot_save(util::ByteWriter& out) const {
  for (const std::uint64_t word : rng_.state()) out.u64(word);
  out.f64(now_ns_);
  out.u64(window_);
  out.u64(activations_);
  // The disturbance table is banks x rows but only rows touched in the
  // current refresh window are nonzero, all inside the dirty range — store
  // those as (index, count).
  std::uint64_t nonzero = 0;
  for (std::size_t i = dirty_begin_; i < dirty_end_; ++i) {
    nonzero += disturbance_[i] != 0 ? 1 : 0;
  }
  out.u64(nonzero);
  for (std::size_t i = dirty_begin_; i < dirty_end_; ++i) {
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
  clear_disturbance();
  const std::size_t nonzero = in.length(16);
  std::uint64_t next_index = 0;
  for (std::size_t i = 0; i < nonzero; ++i) {
    const std::uint64_t index = in.u64();
    const std::uint64_t value = in.u64();
    if (index < next_index || index >= disturbance_.size() || value == 0 ||
        value >= kCounterLimit) {
      throw malformed("dram: disturbance entries out of order or out of range");
    }
    disturbance_[index] = value;
    touch(index);
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
