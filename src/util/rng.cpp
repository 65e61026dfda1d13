#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace charter::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ step: advances \p s, returns the output word.
inline std::uint64_t xoshiro_step(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// 53 high bits -> double in [0,1).
inline double unit_double(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x1ULL;
}

std::uint64_t Rng::next_u64() { return xoshiro_step(s_); }

double Rng::uniform() { return unit_double(next_u64()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

void Rng::fill_uniform(double* out, std::size_t n) {
  // A local copy of the state stays in registers across the loop.
  std::array<std::uint64_t, 4> s = s_;
  for (std::size_t i = 0; i < n; ++i) out[i] = unit_double(xoshiro_step(s));
  s_ = s;
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  CHARTER_ASSERT(n > 0, "uniform_int requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] so the log is finite.
  double u1 = 0.0;
  do {
    u1 = 1.0 - uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mu, double sigma) { return mu + sigma * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::split(std::uint64_t i) const {
  // Mix the parent seed with the stream index through splitmix64 so streams
  // with adjacent indices are uncorrelated.
  std::uint64_t sm = seed_ ^ (0x5851f42d4c957f2dULL * (i + 1));
  const std::uint64_t child_seed = splitmix64(sm);
  return Rng(child_seed);
}

}  // namespace charter::util
