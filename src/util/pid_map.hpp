// Open-addressing robin-hood hash map specialised for dense-ish u32 pid
// keys and small trivially-copyable payloads — the shared core behind every
// pid-keyed table in the stack (SimSystem's pid remap + cold-row index, the
// engine's attachment index).
//
// Why not the dense pid-indexed vectors these tables grew up as? Those are
// O(total-pids-ever): a churning deployment that spawns millions of
// short-lived processes while holding thousands live pays millions of
// entries of memory, reserve cost and whole-table scan cost forever. This
// map is O(tracked): capacity follows the peak simultaneous population, so
// a 10M-spawn run holding 4k live stays at a few-thousand-bucket table.
//
// Layout: three parallel arrays (keys, values, probe-distance bytes) with
// power-of-two capacity. dist_[i] == 0 marks an empty bucket; otherwise it
// is the entry's probe distance + 1 (home bucket = 1). Robin-hood insertion
// swaps a richer resident out whenever the incoming entry is poorer
// (further from home), which keeps the probe-length variance tiny at high
// load; deletion back-shifts the displaced run instead of tombstoning, so
// lookups never scan dead buckets and a long-lived map's performance does
// not decay with churn.
//
// Determinism contract (load-bearing for the repo's bit-replay guarantees):
// every mutation is a deterministic function of the operation sequence, so
// two runs issuing identical operations hold bit-identical tables. Bucket
// layout additionally depends on capacity history, so the map offers no
// iteration: a caller that needs its keys in order keeps them itself.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace valkyrie::util {

template <typename V>
class PidMap {
 public:
  using Key = std::uint32_t;

  PidMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Bucket count (0 until the first insert/reserve). The bounded-memory
  /// tests pin this: capacity tracks peak tracked population, never total
  /// keys ever inserted.
  [[nodiscard]] std::size_t capacity() const noexcept { return dist_.size(); }

  /// Pre-sizes the table so at least `n` entries fit without growing —
  /// after this, inserts up to `n` (net of erases) allocate nothing, which
  /// is what keeps steady-state churn epochs allocation-free.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap - cap / 8 < n) cap <<= 1;
    if (cap > dist_.size()) rehash(cap);
  }

  /// Drops every entry, keeping the bucket allocation.
  void clear() noexcept {
    std::fill(dist_.begin(), dist_.end(), std::uint8_t{0});
    size_ = 0;
  }

  [[nodiscard]] V* find(Key key) noexcept {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  [[nodiscard]] const V* find(Key key) const noexcept {
    if (dist_.empty()) return nullptr;
    std::size_t i = bucket_of(key);
    // Robin-hood early exit: once our probe distance exceeds the
    // resident's, the key cannot be further along (insertion would have
    // displaced that resident), so misses stop after ~mean probe length.
    for (std::uint8_t d = 1;; ++d, i = next(i)) {
      const std::uint8_t resident = dist_[i];
      if (resident < d) return nullptr;
      if (resident == d && keys_[i] == key) return &vals_[i];
    }
  }

  /// Reference to the value for `key`; throws std::out_of_range if absent.
  [[nodiscard]] V& at(Key key) {
    V* v = find(key);
    if (v == nullptr) throw std::out_of_range("PidMap: unknown key");
    return *v;
  }
  [[nodiscard]] const V& at(Key key) const {
    const V* v = find(key);
    if (v == nullptr) throw std::out_of_range("PidMap: unknown key");
    return *v;
  }

  [[nodiscard]] bool contains(Key key) const noexcept {
    return find(key) != nullptr;
  }

  /// Inserts key -> value, or overwrites the existing value. Returns
  /// {pointer to the stored value, true if newly inserted}.
  std::pair<V*, bool> insert(Key key, V value) {
    if (V* existing = find(key)) {
      *existing = std::move(value);
      return {existing, false};
    }
    if (needs_growth()) rehash(dist_.empty() ? kMinCapacity
                                             : dist_.size() * 2);
    V* stored = place(key, std::move(value));
    ++size_;
    return {stored, true};
  }

  /// Removes the key, back-shifting the displaced run so no tombstone is
  /// left behind. Returns false if the key was absent. Never allocates.
  bool erase(Key key) noexcept {
    if (dist_.empty()) return false;
    std::size_t i = bucket_of(key);
    for (std::uint8_t d = 1;; ++d, i = next(i)) {
      const std::uint8_t resident = dist_[i];
      if (resident < d) return false;
      if (resident == d && keys_[i] == key) break;
    }
    // Backward-shift: pull each successor one bucket toward its home until
    // a hole or a home-positioned entry terminates the displaced run. This
    // restores the exact layout a fresh insertion of the remaining keys
    // would build, which keeps lookup cost history-independent.
    std::size_t hole = i;
    for (std::size_t j = next(hole);; hole = j, j = next(j)) {
      if (dist_[j] <= 1) break;
      keys_[hole] = keys_[j];
      vals_[hole] = std::move(vals_[j]);
      dist_[hole] = static_cast<std::uint8_t>(dist_[j] - 1);
    }
    dist_[hole] = 0;
    --size_;
    return true;
  }

  /// Longest probe distance currently in the table (diagnostics; the
  /// robin-hood invariant tests bound it).
  [[nodiscard]] std::size_t max_probe_distance() const noexcept {
    std::uint8_t worst = 0;
    for (const std::uint8_t d : dist_) worst = d > worst ? d : worst;
    return worst == 0 ? 0 : static_cast<std::size_t>(worst) - 1;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  // Probe distances are stored +1 in a byte; if a cluster ever pushes an
  // entry past this, the table is pathologically loaded — grow instead.
  static constexpr std::uint8_t kMaxDistance = 0xff;

  [[nodiscard]] std::size_t bucket_of(Key key) const noexcept {
    // Fibonacci multiplicative hash: one multiply, then keep the top bits.
    // Sequential pids (the common allocation pattern) spread uniformly.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & (dist_.size() - 1);
  }

  [[nodiscard]] bool needs_growth() const noexcept {
    // Grow at 7/8 load: robin-hood keeps probe lengths short right up to
    // high load factors, and 87.5% keeps memory tight for the bounded-RSS
    // contract.
    const std::size_t cap = dist_.size();
    return cap == 0 || size_ + 1 > cap - cap / 8;
  }

  /// Robin-hood insertion of a key known to be absent, into a table known
  /// to have room. Returns the bucket the NEW key's value landed in.
  V* place(Key key, V value) {
    const Key new_key = key;
    std::size_t i = bucket_of(key);
    std::uint8_t d = 1;
    V* stored = nullptr;
    for (;; i = next(i)) {
      if (dist_[i] == 0) {
        keys_[i] = key;
        vals_[i] = std::move(value);
        dist_[i] = d;
        return stored == nullptr ? &vals_[i] : stored;
      }
      if (dist_[i] < d) {
        // Steal from the rich: the resident is closer to home than we are;
        // swap it out and keep walking on its behalf.
        std::swap(keys_[i], key);
        std::swap(vals_[i], value);
        std::swap(dist_[i], d);
        if (stored == nullptr) stored = &vals_[i];
      }
      ++d;
      if (d == kMaxDistance) {
        // Pathological cluster: grow and restart (rare by construction).
        // `key`/`value` here are the entry currently being carried, which
        // may be an evicted resident rather than the new key.
        rehash(dist_.size() * 2);
        place(key, std::move(value));
        return find(new_key);
      }
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    std::vector<std::uint8_t> old_dist = std::move(dist_);
    keys_.assign(new_capacity, Key{});
    vals_.assign(new_capacity, V{});
    dist_.assign(new_capacity, 0);
    shift_ = 64;
    for (std::size_t c = new_capacity; c > 1; c >>= 1) --shift_;
    for (std::size_t i = 0; i < old_dist.size(); ++i) {
      if (old_dist[i] != 0) place(old_keys[i], std::move(old_vals[i]));
    }
  }

  std::vector<Key> keys_;
  std::vector<V> vals_;
  std::vector<std::uint8_t> dist_;  // 0 = empty, else probe distance + 1
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace valkyrie::util
