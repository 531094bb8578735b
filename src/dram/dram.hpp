// DRAM disturbance (rowhammer) model.
//
// Bits in a DRAM row flip when its physically adjacent rows are activated
// many times within one refresh interval (Kim et al., ISCA 2014). The model
// tracks per-row activation counts inside the current refresh window; once
// the accumulated activations of a victim row's neighbours exceed the
// disturbance threshold, each further aggressor activation flips a bit in
// the victim with a small probability.
//
// The key *response-relevant* property this reproduces: hammering is a rate
// threshold. Throttle the attacking process's CPU share so that fewer than
// `disturbance_threshold` adjacent activations land within any 64 ms window
// and the flip count is exactly zero — which is how Valkyrie achieves a 100%
// slowdown in Fig. 6a rather than a proportional one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace valkyrie::util {
class ByteWriter;
class ByteReader;
}  // namespace valkyrie::util

namespace valkyrie::dram {

/// Largest banks x rows table a Dram accepts: the default geometry's 2^18
/// rows (8 x 32768, a 2 MiB table) and the largest any in-tree config uses,
/// so restoring a payload never allocates more than a default rowhammer
/// does. A config past it is refused before the table is allocated.
inline constexpr std::uint64_t kMaxRows = std::uint64_t{1} << 18;

struct DramConfig {
  std::uint32_t banks = 8;
  std::uint32_t rows_per_bank = 32768;
  /// Row-cycle time: every activation advances model time by this much.
  double t_rc_ns = 50.0;
  /// All rows are refreshed (counters cleared) once per interval.
  double refresh_interval_ms = 64.0;
  /// Adjacent-activation count inside one window before flips can occur
  /// (HC_first; ~139K on DDR3 per Kim et al.).
  std::uint64_t disturbance_threshold = 139'000;
  /// Per-activation flip probability once past the threshold. Calibrated so
  /// that an unthrottled double-sided hammer flips ~1 bit per 29 iterations
  /// of a 10K-activation hammer loop (paper §VI-B, Transcend DDR3 chip).
  double flip_prob_per_excess = 2.2e-6;
};

struct FlipRecord {
  std::uint32_t bank;
  std::uint32_t row;
  std::uint64_t window;  // refresh-window ordinal when the flip happened
};

class Dram {
 public:
  /// Throws std::invalid_argument unless banks >= 1, rows_per_bank >= 3,
  /// banks x rows <= kMaxRows, t_rc_ns is finite and > 0, the refresh
  /// window (in ns) is finite and at least t_rc_ns, and
  /// flip_prob_per_excess is in [0, 1].
  explicit Dram(const DramConfig& config, std::uint64_t seed = 0xd7a3);

  /// Activates (opens) a row: advances time by tRC, accumulates disturbance
  /// on the two physically adjacent rows and possibly flips bits in them.
  void activate(std::uint32_t bank, std::uint32_t row);

  /// The hammer loop: exactly `count` activations in `bank`, alternating
  /// `row_a` and `row_b`, `row_a` first. Afterwards the clock, window
  /// ordinal, activation count, RNG state, flip log and disturbance table
  /// are bit-identical to `count` activate() calls — the clock still takes
  /// one `+= t_rc_ns` per activation, the window changes on the same
  /// activation, nothing is drawn below the threshold and every disturbance
  /// past it draws once. Inside a window each disturbed counter is a
  /// closed-form function of the activation index, so the call runs in
  /// phases over which the set of drawing rows is fixed: an activation adds
  /// the row cycle, compares the clock against the window's first value and
  /// takes 0-2 draws from generator words held in locals, and the counters
  /// are written back at phase ends and before each flip-log append. Throws
  /// std::out_of_range, before any activation, unless bank and both rows lie
  /// in the geometry.
  void hammer(std::uint32_t bank, std::uint32_t row_a, std::uint32_t row_b,
              std::uint64_t count);

  /// Advances model time without activity (e.g. the attacker is descheduled).
  /// Refresh windows elapse as usual, clearing disturbance counters.
  void idle_ns(double ns) noexcept;

  [[nodiscard]] std::uint64_t total_bit_flips() const noexcept {
    return flips_.size();
  }
  [[nodiscard]] const std::vector<FlipRecord>& flips() const noexcept {
    return flips_;
  }
  [[nodiscard]] std::uint64_t total_activations() const noexcept {
    return activations_;
  }
  [[nodiscard]] double now_ms() const noexcept { return now_ns_ / 1e6; }
  [[nodiscard]] std::uint64_t refresh_windows_elapsed() const noexcept {
    return window_;
  }
  [[nodiscard]] const DramConfig& config() const noexcept { return config_; }

  /// Serializes the mutable model state (RNG, clock, per-window disturbance
  /// counters — sparsely, the table is banks x rows: the nonzero cells in
  /// index order — and the flip log);
  /// the config is the owner's to persist. snapshot_restore overwrites the
  /// state of a Dram constructed with the same config. It throws
  /// SerialError{kMalformed} unless the clock is finite, non-negative and in
  /// the stored window, the disturbance entries are strictly ascending
  /// in-table indices with counts in [1, 2^63) (what snapshot_save writes:
  /// a window would need 2^63 activations to reach that bound, so a counter
  /// below it never wraps), and every flip lies inside the geometry.
  void snapshot_save(util::ByteWriter& out) const;
  void snapshot_restore(util::ByteReader& in);

 private:
  void advance(double ns) noexcept;
  void disturb(std::uint32_t bank, std::uint32_t row);
  /// Widens the dirty range to cover table cell `index`.
  void touch(std::size_t index) noexcept;
  /// Zeroes the dirty range, which leaves the whole table zero, and empties it.
  void clear_disturbance() noexcept;

  DramConfig config_;
  util::Rng rng_;
  double now_ns_ = 0.0;
  std::uint64_t window_ = 0;
  std::uint64_t activations_ = 0;
  // Disturbance accumulated per row in the *current* window, bank-major.
  std::vector<std::uint64_t> disturbance_;
  // Every nonzero cell of disturbance_ lies in [dirty_begin_, dirty_end_),
  // which is empty (begin == end == 0) right after a clear. A rowhammer's
  // window spans the five cells around its two aggressors.
  std::size_t dirty_begin_ = 0;
  std::size_t dirty_end_ = 0;
  std::vector<FlipRecord> flips_;
};

}  // namespace valkyrie::dram
