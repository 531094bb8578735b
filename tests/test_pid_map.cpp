// Unit suite for util::PidMap — the robin-hood hash core behind every
// pid-keyed table in the stack. Pins the structural invariants (probe
// distances, backward-shift deletion, growth policy) and behavioural parity
// against std::unordered_map under randomized churn.

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "util/pid_map.hpp"

namespace {

using valkyrie::util::PidMap;

TEST(PidMap, StartsEmptyWithNoBuckets) {
  PidMap<int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.find(7u), nullptr);
  EXPECT_FALSE(map.contains(7u));
  EXPECT_FALSE(map.erase(7u));
  EXPECT_EQ(map.max_probe_distance(), 0u);
}

TEST(PidMap, InsertFindAndOverwrite) {
  PidMap<int> map;
  auto [p1, inserted1] = map.insert(42u, 100);
  ASSERT_NE(p1, nullptr);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(*p1, 100);
  EXPECT_EQ(map.size(), 1u);

  // Second insert of the same key overwrites and reports not-inserted.
  auto [p2, inserted2] = map.insert(42u, 200);
  ASSERT_NE(p2, nullptr);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*p2, 200);
  EXPECT_EQ(map.size(), 1u);

  const int* found = map.find(42u);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 200);
  EXPECT_TRUE(map.contains(42u));
  EXPECT_EQ(map.at(42u), 200);
}

TEST(PidMap, AtThrowsOnUnknownKey) {
  PidMap<int> map;
  EXPECT_THROW((void)map.at(1u), std::out_of_range);
  map.insert(1u, 5);
  EXPECT_EQ(map.at(1u), 5);
  EXPECT_THROW((void)map.at(2u), std::out_of_range);

  const PidMap<int>& cmap = map;
  EXPECT_EQ(cmap.at(1u), 5);
  EXPECT_THROW((void)cmap.at(2u), std::out_of_range);
}

TEST(PidMap, ErasePresentAndAbsent) {
  PidMap<int> map;
  for (std::uint32_t k = 0; k < 32; ++k) map.insert(k, static_cast<int>(k));
  EXPECT_EQ(map.size(), 32u);

  EXPECT_TRUE(map.erase(13u));
  EXPECT_EQ(map.size(), 31u);
  EXPECT_FALSE(map.contains(13u));
  // Erasing again (and erasing a never-inserted key) is a no-op.
  EXPECT_FALSE(map.erase(13u));
  EXPECT_FALSE(map.erase(999u));
  EXPECT_EQ(map.size(), 31u);

  // Every other key survives the backward shift untouched.
  for (std::uint32_t k = 0; k < 32; ++k) {
    if (k == 13u) continue;
    const int* v = map.find(k);
    ASSERT_NE(v, nullptr) << "key " << k << " lost after unrelated erase";
    EXPECT_EQ(*v, static_cast<int>(k));
  }
}

TEST(PidMap, GrowthKeepsEveryKeyFindableAndCapacityPowerOfTwo) {
  PidMap<std::uint32_t> map;
  constexpr std::uint32_t kKeys = 10'000;
  for (std::uint32_t k = 0; k < kKeys; ++k) map.insert(k * 7u + 1u, k);
  EXPECT_EQ(map.size(), kKeys);

  // Capacity is a power of two and respects the 7/8 load ceiling.
  const std::size_t cap = map.capacity();
  EXPECT_EQ(cap & (cap - 1), 0u);
  EXPECT_GE(cap - cap / 8, static_cast<std::size_t>(kKeys));

  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const std::uint32_t* v = map.find(k * 7u + 1u);
    ASSERT_NE(v, nullptr) << "key lost across rehash, k=" << k;
    EXPECT_EQ(*v, k);
  }
}

TEST(PidMap, ProbeDistancesStayShortAtHighLoad) {
  // Robin-hood's whole point: even at the 7/8 load ceiling the variance of
  // probe lengths is tiny. Fill a table right up to its growth threshold
  // with sequential pids (the common allocation pattern) and bound the
  // worst-case displacement.
  PidMap<int> map;
  map.reserve(896);  // 1024-bucket table; 896 == 7/8 of it
  const std::size_t cap = map.capacity();
  ASSERT_EQ(cap, 1024u);
  const std::size_t limit = cap - cap / 8;
  for (std::uint32_t k = 0; k < limit; ++k) {
    map.insert(k, static_cast<int>(k));
  }
  EXPECT_EQ(map.capacity(), cap) << "reserve() should have pre-sized growth";
  // A displacement this small means lookups touch a handful of adjacent
  // buckets even at peak load; a linear-probing table would show tails in
  // the dozens here.
  EXPECT_LE(map.max_probe_distance(), 16u);
}

TEST(PidMap, ReservePreventsGrowthAndClearKeepsBuckets) {
  PidMap<int> map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap - cap / 8, 1000u);

  for (std::uint32_t k = 0; k < 1000; ++k) map.insert(k, 1);
  EXPECT_EQ(map.capacity(), cap);

  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_FALSE(map.contains(0u));

  // The buckets are reusable after clear without growing.
  for (std::uint32_t k = 0; k < 1000; ++k) map.insert(k + 50'000u, 2);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.size(), 1000u);
}

TEST(PidMap, FindsEveryEntryAfterOverwrites) {
  PidMap<std::uint64_t> map;
  std::unordered_map<std::uint32_t, std::uint64_t> oracle;
  std::mt19937 rng(1234u);
  for (int i = 0; i < 3000; ++i) {
    const std::uint32_t key = rng() % 5000u;
    const std::uint64_t val = rng();
    map.insert(key, val);
    oracle[key] = val;
  }
  ASSERT_EQ(map.size(), oracle.size());

  // Equal sizes plus every oracle key found with its value: no entry is
  // lost, duplicated or stale.
  for (const auto& [k, v] : oracle) {
    const std::uint64_t* found = map.find(k);
    ASSERT_NE(found, nullptr) << "key " << k << " lost";
    EXPECT_EQ(*found, v) << "key " << k;
  }
}

// The heavyweight behavioural check: a long randomized mix of inserts,
// erases and lookups over a bounded key space must stay in lockstep with
// std::unordered_map, including across many rehashes and backward-shift
// deletions.
TEST(PidMap, RandomizedChurnMatchesUnorderedMapOracle) {
  PidMap<std::uint32_t> map;
  std::unordered_map<std::uint32_t, std::uint32_t> oracle;
  std::mt19937 rng(0x51D3C0DEu);
  constexpr std::uint32_t kKeySpace = 2048;  // small space => heavy collisions

  for (int op = 0; op < 200'000; ++op) {
    const std::uint32_t key = rng() % kKeySpace;
    switch (rng() % 4u) {
      case 0u:
      case 1u: {  // insert / overwrite
        const std::uint32_t val = rng();
        const bool fresh = map.insert(key, val).second;
        const bool oracle_fresh = oracle.insert_or_assign(key, val).second;
        ASSERT_EQ(fresh, oracle_fresh) << "op " << op;
        break;
      }
      case 2u: {  // erase
        ASSERT_EQ(map.erase(key), oracle.erase(key) == 1u) << "op " << op;
        break;
      }
      default: {  // lookup
        const std::uint32_t* v = map.find(key);
        auto it = oracle.find(key);
        ASSERT_EQ(v != nullptr, it != oracle.end()) << "op " << op;
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second) << "op " << op;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), oracle.size()) << "op " << op;

    // Periodic full-content audit plus invariant sweep: with the sizes
    // equal (checked every op), finding every oracle entry leaves no room
    // for a ghost key.
    if (op % 20'000 == 19'999) {
      for (const auto& [k, v] : oracle) {
        const std::uint32_t* found = map.find(k);
        ASSERT_NE(found, nullptr) << "lost key " << k;
        ASSERT_EQ(*found, v);
      }
      ASSERT_LE(map.max_probe_distance(), 64u);
    }
  }
}

// Capacity tracks the PEAK live population, not total keys ever inserted —
// the property the million-pid RSS contract rests on. Push 500k distinct
// keys through a map that never holds more than 512 at once.
TEST(PidMap, ChurnWithBoundedLiveSetKeepsCapacityBounded) {
  PidMap<std::uint16_t> map;
  constexpr std::size_t kLive = 512;
  map.reserve(kLive);
  const std::size_t cap = map.capacity();

  std::vector<std::uint32_t> fifo;
  fifo.reserve(kLive);
  for (std::uint32_t key = 0; key < 500'000u; ++key) {
    if (fifo.size() == kLive) {
      const std::uint32_t victim = fifo[key % kLive];
      ASSERT_TRUE(map.erase(victim));
      fifo[key % kLive] = key;
    } else {
      fifo.push_back(key);
    }
    ASSERT_TRUE(map.insert(key, static_cast<std::uint16_t>(key & 0xffffu))
                    .second);
    ASSERT_EQ(map.capacity(), cap) << "grew at key " << key;
  }
  EXPECT_EQ(map.size(), kLive);
  for (const std::uint32_t key : fifo) {
    const std::uint16_t* v = map.find(key);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<std::uint16_t>(key & 0xffffu));
  }
}

}  // namespace
