// Deterministic pseudo-random number generation for all simulations.
//
// Every experiment in this repository is seeded, so results are reproducible
// bit-for-bit across runs. We use xoshiro256** (public-domain algorithm by
// Blackman & Vigna) seeded through splitmix64, which gives high-quality
// streams from any 64-bit seed, including 0.
//
// A second, opt-in COUNTER mode turns a stream into a pure function: every
// draw is a splitmix-style hash of (stream seed, epoch, draw index), so a
// value depends only on those three words — never on how many draws any
// other epoch consumed. That is what lets SimSystem rebase every per-slot
// stream at each epoch boundary (set_epoch) and stay bit-reproducible across
// worker counts and snapshot/restore while the state shrinks to a counter. Counter-mode normal() uses the Acklam inverse-CDF polynomial
// (one uniform per normal, no log/cos on the central ~95% of draws) instead
// of Box-Muller — the dominant sim-side cost at scale. The default mode is
// untouched: an Rng constructed normally is bit-identical to every previous
// release.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace valkyrie::util {

/// Splits one 64-bit seed into a well-distributed stream of 64-bit values.
/// Used only for seeding Rng; not a general-purpose generator.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator. Satisfies the essentials of
/// UniformRandomBitGenerator so it can be handed to <random> distributions,
/// though we provide the distributions we need directly to keep results
/// identical across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Builds a counter-mode stream: state_[0] = stream seed, state_[1] =
  /// epoch, state_[2] = draw index (state_[3] unused). Draws are pure
  /// hashes of those words, so two counter streams with the same seed and
  /// epoch produce the same values regardless of each other's history.
  [[nodiscard]] static Rng counter_stream(std::uint64_t stream_seed) noexcept {
    Rng r(stream_seed);
    r.kind_ = Kind::kCounter;
    r.state_ = {stream_seed, 0, 0, 0};
    return r;
  }

  [[nodiscard]] bool counter_mode() const noexcept {
    return kind_ == Kind::kCounter;
  }

  /// Flips the generator kind without touching the state words — the
  /// snapshot/restore hook (state() carries the words, the image carries
  /// the mode). No-op re-setting the current kind.
  void set_counter_mode(bool on) noexcept {
    kind_ = on ? Kind::kCounter : Kind::kXoshiro;
  }

  /// Counter mode only: rebases the stream at (epoch, draw 0). After this,
  /// every draw is a pure function of (seed, epoch, index) — independent of
  /// anything consumed in earlier epochs. Ignored in xoshiro mode.
  void set_epoch(std::uint64_t epoch) noexcept {
    if (kind_ != Kind::kCounter) return;
    state_[1] = epoch;
    state_[2] = 0;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    if (kind_ == Kind::kCounter) {
      // Combine (seed, epoch, index) with two odd multipliers, then run the
      // splitmix64 finalizer — the same avalanche that makes splitmix64 a
      // counter-based generator in its own right.
      std::uint64_t z = state_[0] + state_[1] * 0x9e3779b97f4a7c15ULL +
                        state_[2] * 0xd1b54a32d192ed03ULL;
      ++state_[2];
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    }
    return xoshiro_next(state_);
  }

  /// One xoshiro256** step on bare state words: returns the draw and
  /// advances `s`. operator() runs it on the generator's own state; a hot
  /// loop may run it on a copy of state() held in locals (Dram::hammer) and
  /// hand the words back through set_state().
  static constexpr result_type xoshiro_next(
      std::array<std::uint64_t, 4>& s) noexcept {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Standard normal. Xoshiro mode: Box-Muller (single value; we waste the
  /// pair partner to keep the generator state independent of call history
  /// shape) — bit-identical to every previous release. Counter mode: one
  /// uniform through the Acklam inverse-CDF rational polynomial (~1.2e-9
  /// relative accuracy; log/sqrt only on the ~2.4% tail region), which is
  /// both cheaper per draw and exactly one counter tick per normal.
  double normal() noexcept {
    if (kind_ == Kind::kCounter) {
      // (0, 1) exclusive: the +0.5 offset keeps u off both endpoints.
      const double u =
          (static_cast<double>((*this)() >> 11) + 0.5) * 0x1.0p-53;
      return inverse_normal_cdf(u);
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    constexpr double two_pi = 6.283185307179586476925286766559;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Fills out[0..n) with standard normals, bit-identical to n successive
  /// normal() calls in both modes. Counter mode routes through a
  /// vectorizable batch kernel (src/util/rng.cpp): the pure-hash uniforms
  /// and the central Acklam polynomial evaluate across the whole batch
  /// with a scalar fixup for the ~4.9% of draws landing in the tails.
  /// Xoshiro draws are serially dependent, so that mode loops the scalar
  /// path unchanged.
  void normal_batch(double* out, std::size_t n) noexcept;

  /// Derives an independent child generator; handy for giving each simulated
  /// process its own stream without coupling their consumption patterns.
  /// A counter-mode parent forks counter-mode children (seeded from one
  /// parent draw, epoch and index reset to 0).
  Rng fork() noexcept {
    return kind_ == Kind::kCounter ? counter_stream((*this)())
                                   : Rng((*this)());
  }

  /// Raw xoshiro256** state, for snapshot/restore. A generator rebuilt via
  /// set_state() continues the exact stream the original would have produced.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

  /// Acklam's rational approximation to the inverse normal CDF (max
  /// relative error ~1.15e-9). p must be in (0, 1) exclusive. Public so
  /// the batch kernel (rng.cpp) and tests can pin against the exact same
  /// polynomial the scalar counter-mode normal() uses.
  [[nodiscard]] static double inverse_normal_cdf(double p) noexcept {
    constexpr double a1 = -3.969683028665376e+01;
    constexpr double a2 = 2.209460984245205e+02;
    constexpr double a3 = -2.759285104469687e+02;
    constexpr double a4 = 1.383577518672690e+02;
    constexpr double a5 = -3.066479806614716e+01;
    constexpr double a6 = 2.506628277459239e+00;
    constexpr double b1 = -5.447609879822406e+01;
    constexpr double b2 = 1.615858368580409e+02;
    constexpr double b3 = -1.556989798598866e+02;
    constexpr double b4 = 6.680131188771972e+01;
    constexpr double b5 = -1.328068155288572e+01;
    constexpr double c1 = -7.784894002430293e-03;
    constexpr double c2 = -3.223964580411365e-01;
    constexpr double c3 = -2.400758277161838e+00;
    constexpr double c4 = -2.549732539343734e+00;
    constexpr double c5 = 4.374664141464968e+00;
    constexpr double c6 = 2.938163982698783e+00;
    constexpr double d1 = 7.784695709041462e-03;
    constexpr double d2 = 3.224671290700398e-01;
    constexpr double d3 = 2.445134137142996e+00;
    constexpr double d4 = 3.754408661907416e+00;
    constexpr double kLow = 0.02425;
    if (p < kLow) {
      const double q = std::sqrt(-2.0 * std::log(p));
      return (((((c1 * q + c2) * q + c3) * q + c4) * q + c5) * q + c6) /
             ((((d1 * q + d2) * q + d3) * q + d4) * q + 1.0);
    }
    if (p > 1.0 - kLow) {
      const double q = std::sqrt(-2.0 * std::log(1.0 - p));
      return -(((((c1 * q + c2) * q + c3) * q + c4) * q + c5) * q + c6) /
             ((((d1 * q + d2) * q + d3) * q + d4) * q + 1.0);
    }
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a1 * r + a2) * r + a3) * r + a4) * r + a5) * r + a6) * q /
           (((((b1 * r + b2) * r + b3) * r + b4) * r + b5) * r + 1.0);
  }

  /// The central-region threshold of inverse_normal_cdf: draws with
  /// p in [kCentralLow, 1 - kCentralLow] take the pure rational-polynomial
  /// path (no log/sqrt).
  static constexpr double kCentralLow = 0.02425;

 private:
  enum class Kind : std::uint8_t { kXoshiro = 0, kCounter = 1 };

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  Kind kind_ = Kind::kXoshiro;
};

}  // namespace valkyrie::util
