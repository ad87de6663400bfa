// Deterministic random number generation.
//
// The simulator must be bit-reproducible for a given seed, so we ship our own
// small generator (xoshiro256**, public domain algorithm by Blackman & Vigna)
// instead of depending on the unspecified std::mt19937 distributions.
// Distribution helpers here are exact and platform-independent.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

namespace capmem {

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG with splitmix64 seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-initializes the state deterministically from `seed`.
  void reseed(std::uint64_t seed) {
    // splitmix64 to spread a single word over the 256-bit state.
    std::uint64_t x = seed;
    for (auto& w : s_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      w = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit word.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    CAPMEM_DCHECK(bound > 0);
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal() {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 <= std::numeric_limits<double>::min()) u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

  /// Lognormal multiplier with median 1 and shape sigma: exp(sigma * N(0,1)).
  double lognormal_factor(double sigma) { return std::exp(sigma * normal()); }

  /// Raw 256-bit state, for checkpoint/restore (capmem::snap). Restoring
  /// the words restores the exact draw sequence.
  std::array<std::uint64_t, 4> state_words() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state_words(const std::array<std::uint64_t, 4>& w) {
    // The all-zero state is xoshiro's one fixed point (every draw would be
    // 0); it cannot arise from reseed() or stepping, only from corruption.
    CAPMEM_CHECK_MSG(w[0] | w[1] | w[2] | w[3],
                     "refusing all-zero xoshiro256** state");
    for (int i = 0; i < 4; ++i) s_[static_cast<std::size_t>(i)] = w[i];
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

/// XORs a splitmix64-derived word sequence keyed by `fork_seed` into a
/// xoshiro256** state, yielding a decorrelated stream per distinct seed.
/// snap::fork() perturbs a forked machine's engine RNG with it, so sibling
/// forks draw independent streams. fork_seed == 0 is the identity only when
/// the splitmix sequence happens to XOR to zero — callers wanting "no
/// perturbation" should simply not call this.
inline void perturb_stream(std::array<std::uint64_t, 4>& w,
                           std::uint64_t fork_seed) {
  std::uint64_t x = fork_seed;
  for (auto& word : w) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    word ^= z ^ (z >> 31);
  }
  // The all-zero state is xoshiro's fixed point; keep the stream live.
  if ((w[0] | w[1] | w[2] | w[3]) == 0) w[0] = 1;
}

}  // namespace capmem
