// rng.h — deterministic PRNG (xoshiro256**) for reproducible experiments.
//
// Every stochastic element of the simulation (payload randomization, jitter,
// trace generation, diurnal noise) draws from an explicitly seeded Rng so that
// tests and benchmark tables are bit-for-bit reproducible run to run.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace liberate {

/// One splitmix64 step: advance by the golden gamma, then finalize. Seeds
/// xoshiro state below, and elsewhere decorrelates derived seeds (fleet
/// shards, scheduler worlds) and spreads hash bits (FlowTable slots).
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 seeding, the canonical way to initialize xoshiro state.
    for (auto& s : state_) {
      s = splitmix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  std::uint64_t next() {
    auto rotl = [](std::uint64_t x, int k) {
      return (x << k) | (x >> (64 - k));
    };
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// Uniform in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  bool chance(double p) { return uniform() < p; }

  std::uint8_t byte() { return static_cast<std::uint8_t>(next()); }

  Bytes bytes(std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = byte();
    return out;
  }

 private:
  std::uint64_t state_[4];
};

}  // namespace liberate
