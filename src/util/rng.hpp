#pragma once

/// \file rng.hpp
/// Deterministic, splittable random number generation.
///
/// Every stochastic component in charter (fake calibration data, run-to-run
/// drift, trajectory sampling, shot sampling) draws from an explicitly seeded
/// Rng so that a given seed reproduces a table bit-for-bit across runs and
/// platforms.  The generator is xoshiro256++ seeded through splitmix64 — fast,
/// tiny state, and independent of the standard library's unspecified
/// distributions (we implement our own uniform/normal transforms).

#include <array>
#include <cstddef>
#include <cstdint>

namespace charter::util {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic xoshiro256++ generator with explicit distribution helpers.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from \p seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit draw.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Writes the next \p n uniform() draws to \p out, in order, in one
  /// loop with the generator state in registers; afterwards the state is
  /// exactly where n uniform() calls would have left it.
  void fill_uniform(double* out, std::size_t n);

  /// Uniform integer in [0, n); requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal draw (Box–Muller with caching).
  double normal();

  /// Normal draw with mean \p mu and standard deviation \p sigma.
  double normal(double mu, double sigma);

  /// Bernoulli trial with probability \p p of returning true.
  bool bernoulli(double p);

  /// Derives an independent child generator; stream \p i of this seed.
  /// Used to hand uncorrelated streams to parallel trajectories.
  Rng split(std::uint64_t i) const;

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
  std::uint64_t seed_ = 0;
};

}  // namespace charter::util
