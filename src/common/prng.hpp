// Deterministic pseudo-random number generation.
//
// All workload generators (IGrid's indirection map, NBF's partner lists,
// FFT input, fuzz tests) draw from this splitmix64 generator so that every
// process in a run — and every system variant of an application — sees the
// identical problem instance from the same seed.
#pragma once

#include <cstdint>

namespace common {

/// splitmix64's finalizer: a full-avalanche 64-bit mix, shared by the
/// PRNG below and the store schedules of the epoch-soak and race-stress
/// workloads, so the constants live in exactly one place.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64: tiny, fast, high-quality 64-bit generator.
/// (Steele, Lea, Flood — "Fast Splittable Pseudorandom Number Generators".)
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }

  /// Uniform in [0, bound). bound must be > 0.
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Modulo bias is irrelevant for workload generation.
    return next() % bound;
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double next_double(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

 private:
  std::uint64_t state_;
};

}  // namespace common
