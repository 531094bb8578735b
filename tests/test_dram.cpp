#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "alloc_hooks.hpp"
#include "dram/dram.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace valkyrie::dram {
namespace {

DramConfig small_config() {
  DramConfig c;
  c.banks = 2;
  c.rows_per_bank = 64;
  c.t_rc_ns = 50.0;
  c.refresh_interval_ms = 1.0;  // 20000 activations per window max
  c.disturbance_threshold = 5000;
  c.flip_prob_per_excess = 0.01;
  return c;
}

TEST(Dram, NoFlipsBelowThreshold) {
  Dram dram(small_config());
  // 2500 activations on each neighbour of row 10 inside one window: the
  // double-sided victim accumulates 5000 disturbances, never *exceeding*
  // the threshold; the single-sided victims (8, 12) see half that.
  for (int i = 0; i < 2500; ++i) {
    dram.activate(0, 9);
    dram.activate(0, 11);
  }
  EXPECT_EQ(dram.total_bit_flips(), 0u);
  EXPECT_EQ(dram.total_activations(), 5000u);
}

TEST(Dram, FlipsAccumulatePastThreshold) {
  Dram dram(small_config());
  // 2x the threshold on the double-sided victim inside one refresh window.
  for (int i = 0; i < 5000; ++i) {
    dram.activate(0, 9);
    dram.activate(0, 11);
  }
  EXPECT_GT(dram.total_bit_flips(), 0u);
  // Flips hit the hammered bank, on the double-sided victim (row 10) or —
  // with enough excess — the single-sided victims 8 and 12.
  std::uint64_t flips_on_10 = 0;
  for (const FlipRecord& flip : dram.flips()) {
    EXPECT_EQ(flip.bank, 0u);
    EXPECT_TRUE(flip.row == 8 || flip.row == 10 || flip.row == 12)
        << "row " << flip.row;
    if (flip.row == 10) ++flips_on_10;
  }
  // The double-sided victim must dominate.
  EXPECT_GE(2 * flips_on_10, dram.total_bit_flips());
}

TEST(Dram, RefreshClearsDisturbance) {
  DramConfig cfg = small_config();
  Dram dram(cfg);
  // 3000+3000 disturbances on row 10 with a refresh in between: each
  // window stays below the 5000 threshold, so no flips — though 6000
  // within one window would have flipped (see FlipsAccumulate test).
  for (int i = 0; i < 1500; ++i) {
    dram.activate(0, 9);
    dram.activate(0, 11);
  }
  dram.idle_ns(cfg.refresh_interval_ms * 1e6 * 2);
  for (int i = 0; i < 1500; ++i) {
    dram.activate(0, 9);
    dram.activate(0, 11);
  }
  EXPECT_EQ(dram.total_bit_flips(), 0u);
  EXPECT_GE(dram.refresh_windows_elapsed(), 2u);
}

TEST(Dram, ActivationAdvancesTime) {
  Dram dram(small_config());
  dram.activate(0, 5);
  dram.activate(0, 5);
  EXPECT_DOUBLE_EQ(dram.now_ms(), 2 * 50.0 / 1e6);
}

TEST(Dram, IdleAdvancesWindows) {
  Dram dram(small_config());
  EXPECT_EQ(dram.refresh_windows_elapsed(), 0u);
  dram.idle_ns(3.5e6);  // 3.5 ms = 3 full 1 ms windows elapsed
  EXPECT_EQ(dram.refresh_windows_elapsed(), 3u);
}

TEST(Dram, EdgeRowsDisturbOneNeighbourOnly) {
  DramConfig cfg = small_config();
  Dram dram(cfg);
  // Hammering row 0 only disturbs row 1 (no out-of-range access); well
  // past the threshold it must flip bits there and only there.
  for (int i = 0; i < 12000; ++i) dram.activate(1, 0);
  EXPECT_GT(dram.total_bit_flips(), 0u);
  for (const FlipRecord& flip : dram.flips()) {
    EXPECT_EQ(flip.row, 1u);
    EXPECT_EQ(flip.bank, 1u);
  }
}

TEST(Dram, BanksAreIndependent) {
  Dram dram(small_config());
  // Split the hammering across banks: neither victim crosses threshold,
  // even though the combined count would.
  for (int i = 0; i < 3000; ++i) {
    dram.activate(0, 9);
    dram.activate(1, 9);
  }
  EXPECT_EQ(dram.total_bit_flips(), 0u);
}

TEST(Dram, DeterministicForSeed) {
  Dram a(small_config(), 99);
  Dram b(small_config(), 99);
  for (int i = 0; i < 4000; ++i) {
    a.activate(0, 9);
    a.activate(0, 11);
    b.activate(0, 9);
    b.activate(0, 11);
  }
  EXPECT_EQ(a.total_bit_flips(), b.total_bit_flips());
}

// Property: the hammering-rate threshold. Sweep the active duty cycle; bit
// flips must be zero whenever the per-window activation count stays at or
// below the threshold, and positive when it is far above.
class DutyCycle : public ::testing::TestWithParam<double> {};

TEST_P(DutyCycle, ThresholdSeparatesFlipFromNoFlip) {
  const double duty = GetParam();
  DramConfig cfg = small_config();
  Dram dram(cfg);
  // One window = 1 ms = at most 20000 activations; victim row sees all of
  // them. Interleave active/idle at 0.1 ms granularity.
  const int slices = 100;  // 10 windows worth
  const double slice_ns = 0.1e6;
  const auto acts_per_slice = static_cast<int>(slice_ns / cfg.t_rc_ns);
  double credit = 0.0;
  for (int s = 0; s < slices; ++s) {
    credit += duty;
    if (credit >= 1.0) {
      credit -= 1.0;
      for (int a = 0; a < acts_per_slice; ++a) {
        dram.activate(0, (a & 1) ? 9 : 11);
      }
    } else {
      dram.idle_ns(slice_ns);
    }
  }
  // Per window: duty * 10 slices * 2000 activations on the victim.
  const double acts_per_window = duty * 10 * 2000;
  if (acts_per_window <= cfg.disturbance_threshold) {
    EXPECT_EQ(dram.total_bit_flips(), 0u) << "duty=" << duty;
  }
  if (acts_per_window > 3 * cfg.disturbance_threshold) {
    EXPECT_GT(dram.total_bit_flips(), 0u) << "duty=" << duty;
  }
}

INSTANTIATE_TEST_SUITE_P(Duties, DutyCycle,
                         ::testing::Values(0.01, 0.05, 0.2, 0.5, 1.0));

// --- Dram::hammer against activate() ------------------------------------------

std::vector<std::uint8_t> saved(const Dram& dram) {
  std::vector<std::uint8_t> bytes;
  util::ByteWriter out(bytes);
  dram.snapshot_save(out);
  return bytes;
}

struct HammerCoverage {
  int calls_crossing_a_window = 0;
  int calls_with_flips = 0;
  int edge_calls = 0;
  int aliased_calls = 0;
};

/// Runs `calls` random hammer() calls, with random idle gaps between them,
/// on one Dram and the same activations through activate() on a twin, and
/// requires the two to match after every call: snapshot bytes (RNG state,
/// clock, window, activation count, disturbance table, flip log), flips and
/// the public counters. `coverage` tallies what the calls exercised.
void expect_hammer_matches_activate(const DramConfig& cfg, std::uint64_t seed,
                                    int calls, std::uint64_t max_count,
                                    HammerCoverage& coverage) {
  Dram bulk(cfg, seed);
  Dram reference(cfg, seed);
  util::Rng pick(seed ^ 0x9e37);
  const std::uint32_t rows = cfg.rows_per_bank;
  const double window_ns = cfg.refresh_interval_ms * 1e6;
  // A few fixed victims, so counters build up past the threshold.
  const std::uint32_t victims[] = {1, 2, rows / 2, rows - 2};
  for (int call = 0; call < calls; ++call) {
    const auto bank = static_cast<std::uint32_t>(pick.below(cfg.banks));
    const std::uint32_t victim = victims[pick.below(4)];
    std::uint32_t row_a = victim - 1;
    std::uint32_t row_b = victim + 1;
    switch (pick.below(6)) {
      case 0: row_b = row_a + 1; break;   // adjacent aggressors
      case 1: row_b = row_a; break;       // one row, twice
      case 2: row_a = 0; break;           // lower edge
      case 3: row_b = rows - 1; break;    // upper edge
      case 4: std::swap(row_a, row_b); break;
      default: break;                     // double-sided
    }
    coverage.edge_calls += row_a == 0 || row_b == rows - 1;
    coverage.aliased_calls += row_b == row_a + 1 || row_b == row_a;
    const std::uint64_t count =
        pick.chance(0.1) ? pick.below(4) : pick.below(max_count + 1);
    if (pick.chance(0.3)) {
      const double idle = pick.uniform(0.0, 1.5 * window_ns);
      bulk.idle_ns(idle);
      reference.idle_ns(idle);
    }

    const std::uint64_t window_before = reference.refresh_windows_elapsed();
    const std::uint64_t flips_before = reference.total_bit_flips();
    bulk.hammer(bank, row_a, row_b, count);
    for (std::uint64_t i = 0; i < count; ++i) {
      reference.activate(bank, (i & 1) == 0 ? row_a : row_b);
    }
    coverage.calls_crossing_a_window +=
        reference.refresh_windows_elapsed() != window_before;
    coverage.calls_with_flips += reference.total_bit_flips() != flips_before;

    ASSERT_EQ(saved(bulk), saved(reference))
        << "call " << call << ": bank " << bank << " rows " << row_a << "/"
        << row_b << " x" << count;
    ASSERT_EQ(bulk.total_bit_flips(), reference.total_bit_flips());
    for (std::size_t f = flips_before; f < bulk.flips().size(); ++f) {
      EXPECT_EQ(bulk.flips()[f].bank, reference.flips()[f].bank);
      EXPECT_EQ(bulk.flips()[f].row, reference.flips()[f].row);
      EXPECT_EQ(bulk.flips()[f].window, reference.flips()[f].window);
    }
    ASSERT_EQ(bulk.total_activations(), reference.total_activations());
    ASSERT_EQ(bulk.refresh_windows_elapsed(),
              reference.refresh_windows_elapsed());
    ASSERT_EQ(bulk.now_ms(), reference.now_ms());
  }
}

void expect_matches_and_covers(const DramConfig& cfg, std::uint64_t seed,
                               int calls, std::uint64_t max_count) {
  HammerCoverage c;
  expect_hammer_matches_activate(cfg, seed, calls, max_count, c);
  EXPECT_GT(c.calls_crossing_a_window, 0);
  EXPECT_GT(c.calls_with_flips, 0);
  EXPECT_GT(c.edge_calls, 0);
  EXPECT_GT(c.aliased_calls, 0);
}

TEST(DramHammer, MatchesActivateOnTheDefaultGeometry) {
  // 64 ms windows hold 1.28M activations; 139K of them on one row flip.
  expect_matches_and_covers(DramConfig{}, 0x11, 200, 200'000);
}

TEST(DramHammer, MatchesActivateOnASmallGeometry) {
  expect_matches_and_covers(small_config(), 0x22, 300, 30'000);
}

TEST(DramHammer, MatchesActivateWithANonIntegerRowCycle) {
  // 0.9 ms is 18,480.49 row cycles of 48.7 ns: the clock never lands on a
  // window boundary, which the bulk loop must find by the same divide.
  DramConfig cfg = small_config();
  cfg.t_rc_ns = 48.7;
  cfg.refresh_interval_ms = 0.9;
  cfg.disturbance_threshold = 3000;
  cfg.flip_prob_per_excess = 0.002;
  expect_matches_and_covers(cfg, 0x33, 300, 25'000);
}

// A threshold past 2^63 (a payload may carry any u64): an outer row would
// need twice that many activations to draw, which the phase plan must not
// wrap into a small count.
TEST(DramHammer, MatchesActivateWithAThresholdOutOfReach) {
  DramConfig cfg = small_config();
  cfg.disturbance_threshold = (std::uint64_t{1} << 63) + 7;
  HammerCoverage coverage;
  expect_hammer_matches_activate(cfg, 0x44, 100, 30'000, coverage);
  EXPECT_EQ(coverage.calls_with_flips, 0);
  EXPECT_GT(coverage.calls_crossing_a_window, 0);
}

// The flip log's append is the one step that can throw. When it does, the
// model must stand where activate() leaves it: this activation counted, its
// draw taken, the disturbed row counted and the other neighbour not yet.
TEST(DramHammer, AFailedFlipAppendLeavesTheModelWhereActivateWould) {
  Dram bulk(small_config(), 9);
  Dram reference(small_config(), 9);
  bool bulk_threw = false;
  std::uint64_t done = 0;
  g_fail_allocations.store(true);
  try {
    bulk.hammer(0, 9, 11, 20'000);
  } catch (const std::bad_alloc&) {
    bulk_threw = true;
  }
  try {
    for (; done < 20'000; ++done) {
      reference.activate(0, (done & 1) == 0 ? 9 : 11);
    }
  } catch (const std::bad_alloc&) {
  }
  g_fail_allocations.store(false);
  ASSERT_TRUE(bulk_threw);
  ASSERT_LT(done, 20'000u);  // the first flip's append failed
  EXPECT_EQ(bulk.total_activations(), done + 1);
  EXPECT_EQ(saved(bulk), saved(reference));
}

TEST(DramHammer, ZeroCountIsANoOp) {
  Dram dram(small_config(), 5);
  dram.hammer(0, 9, 11, 7);
  const std::vector<std::uint8_t> before = saved(dram);
  dram.hammer(1, 0, 63, 0);
  EXPECT_EQ(saved(dram), before);
}

TEST(DramHammer, RowsOutsideTheGeometryAreRefusedBeforeAnyActivation) {
  Dram dram(small_config(), 5);
  dram.hammer(0, 9, 11, 7);
  const std::vector<std::uint8_t> before = saved(dram);
  EXPECT_THROW(dram.hammer(2, 9, 11, 1), std::out_of_range);
  EXPECT_THROW(dram.hammer(0, 64, 11, 1), std::out_of_range);
  EXPECT_THROW(dram.hammer(0, 9, 0xffffffffu, 1), std::out_of_range);
  EXPECT_EQ(saved(dram), before);
}

// --- Snapshot restore -----------------------------------------------------------

/// The (index, count) disturbance entries a snapshot carries, after the RNG
/// words, clock, window and activation count.
std::vector<std::pair<std::uint64_t, std::uint64_t>> saved_counters(
    const Dram& dram) {
  const std::vector<std::uint8_t> bytes = saved(dram);
  util::ByteReader in(bytes);
  for (int word = 0; word < 7; ++word) (void)in.u64();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries(in.u64());
  for (auto& [index, count] : entries) {
    index = in.u64();
    count = in.u64();
  }
  return entries;
}

/// Drives `a` and `b` through the same random hammer(), activate() and
/// idle_ns() calls, requiring equal snapshot bytes after every call, and
/// returns how many refresh windows the calls crossed. A crossed window
/// must leave no counter behind.
std::uint64_t expect_twins_stay_equal(Dram& a, Dram& b, util::Rng& pick,
                                      int calls) {
  const DramConfig& cfg = a.config();
  const std::uint64_t window_before = a.refresh_windows_elapsed();
  for (int call = 0; call < calls; ++call) {
    const auto bank = static_cast<std::uint32_t>(pick.below(cfg.banks));
    const auto row = static_cast<std::uint32_t>(pick.below(cfg.rows_per_bank));
    const std::uint64_t window = a.refresh_windows_elapsed();
    switch (pick.below(3)) {
      case 0: {
        const auto other =
            static_cast<std::uint32_t>(pick.below(cfg.rows_per_bank));
        const std::uint64_t count = pick.below(12'000);
        a.hammer(bank, row, other, count);
        b.hammer(bank, row, other, count);
        break;
      }
      case 1:
        a.activate(bank, row);
        b.activate(bank, row);
        break;
      default: {
        const double idle = pick.uniform(0.0, 0.6 * cfg.refresh_interval_ms * 1e6);
        a.idle_ns(idle);
        b.idle_ns(idle);
        if (a.refresh_windows_elapsed() != window) {
          EXPECT_TRUE(saved_counters(a).empty()) << "call " << call;
        }
        break;
      }
    }
    EXPECT_EQ(saved(a), saved(b)) << "call " << call;
    if (::testing::Test::HasFailure()) return 0;
  }
  return a.refresh_windows_elapsed() - window_before;
}

/// Restores `original`'s snapshot into a fresh Dram (seeded differently, so
/// nothing but the snapshot can make them agree) and drives both.
void expect_restored_twin_matches(Dram& original, util::Rng& pick) {
  const std::vector<std::uint8_t> bytes = saved(original);
  Dram restored(original.config(), 0xbad);
  util::ByteReader in(bytes);
  restored.snapshot_restore(in);
  ASSERT_TRUE(in.done());
  ASSERT_EQ(saved(restored), bytes);
  EXPECT_GE(expect_twins_stay_equal(original, restored, pick, 300), 2u);
}

TEST(DramRestore, ARestoredDramContinuesBitIdentically) {
  const DramConfig cfg = small_config();
  Dram original(cfg, 0x7e);
  util::Rng pick(0x7e);
  // Mid-window, past the threshold: nonzero counters and a flip log.
  original.hammer(0, 9, 11, 12'000);
  original.activate(1, 30);
  ASSERT_FALSE(saved_counters(original).empty());
  ASSERT_GT(original.total_bit_flips(), 0u);
  expect_restored_twin_matches(original, pick);
}

// Every row of bank 1 activated inside one window, after a hammer in bank 0,
// spreads the dirty range over all but eight cells of the table: the next
// window change must zero every counter, a copy must clear the same cells,
// and a snapshot taken before it restores them all.
TEST(DramRestore, AWindowChangeAfterEveryRowClearsTheWholeTable) {
  const DramConfig cfg = small_config();
  Dram original(cfg, 0x7f);
  util::Rng pick(0x7f);
  original.hammer(0, 9, 11, 6'000);
  for (std::uint32_t row = 0; row < cfg.rows_per_bank; ++row) {
    original.activate(1, row);
  }
  ASSERT_EQ(original.refresh_windows_elapsed(), 0u);
  ASSERT_EQ(saved_counters(original).size(), 3 + cfg.rows_per_bank);

  Dram cleared = original;
  cleared.idle_ns(cfg.refresh_interval_ms * 1e6);
  EXPECT_TRUE(saved_counters(cleared).empty());
  // Counted from zero again: 5,000 activations around row 21 of bank 1.
  cleared.hammer(1, 20, 22, 5'000);
  const std::uint64_t bank1 = cfg.rows_per_bank;
  EXPECT_EQ(saved_counters(cleared),
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {bank1 + 19, 2'500}, {bank1 + 21, 5'000}, {bank1 + 23, 2'500}}));

  expect_restored_twin_matches(original, pick);
}

/// A payload for small_config(): the RNG words, clock, window and activation
/// count of a fresh Dram, one disturbance entry (`index`, `count`) and no
/// flips.
std::vector<std::uint8_t> one_counter_payload(std::uint64_t index,
                                              std::uint64_t count) {
  std::vector<std::uint8_t> bytes = saved(Dram(small_config(), 0x80));
  bytes.resize(bytes.size() - 16);  // the zero entry and flip counts
  util::ByteWriter out(bytes);
  out.u64(1);
  out.u64(index);
  out.u64(count);
  out.u64(0);
  return bytes;
}

// A counter at 2^63 or past it (a payload may carry any u64) is refused: one
// window cannot hold that many activations, and a counter near 2^64 would
// wrap in activate() where hammer()'s plan has it draw. Just below the bound
// a counter restores, and hammer() still matches activate() from it.
TEST(DramRestore, ACounterPastTwoToTheSixtyThreeIsRefused) {
  const DramConfig cfg = small_config();
  for (const std::uint64_t count :
       {std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    const std::vector<std::uint8_t> bytes = one_counter_payload(10, count);
    Dram dram(cfg, 0x81);
    util::ByteReader in(bytes);
    try {
      dram.snapshot_restore(in);
      ADD_FAILURE() << "count " << count << " restored";
    } catch (const util::SerialError& e) {
      EXPECT_EQ(e.code(), util::SerialError::Code::kMalformed) << count;
    }
  }

  const std::vector<std::uint8_t> bytes =
      one_counter_payload(10, (std::uint64_t{1} << 63) - 1);
  Dram bulk(cfg, 0x82);
  Dram reference(cfg, 0x82);
  util::ByteReader bulk_in(bytes);
  util::ByteReader reference_in(bytes);
  bulk.snapshot_restore(bulk_in);
  reference.snapshot_restore(reference_in);
  ASSERT_EQ(saved(bulk), bytes);
  bulk.hammer(0, 9, 11, 3'000);
  for (int i = 0; i < 3'000; ++i) reference.activate(0, (i & 1) == 0 ? 9 : 11);
  EXPECT_EQ(saved(bulk), saved(reference));
  EXPECT_GT(bulk.total_bit_flips(), 0u);
}

}  // namespace
}  // namespace valkyrie::dram
