#include "sim/measurement.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace charter::sim {

void apply_readout_error(std::vector<double>& probs,
                         const std::vector<ReadoutError>& errors) {
  const std::size_t n = errors.size();
  require(probs.size() == (std::size_t{1} << n),
          "probs size must be 2^num_qubits");
  for (std::size_t q = 0; q < n; ++q) {
    const double e01 = errors[q].p_meas1_given0;
    const double e10 = errors[q].p_meas0_given1;
    if (e01 <= 0.0 && e10 <= 0.0) continue;
    const std::uint64_t mask = 1ULL << q;
    for (std::uint64_t i0 = 0; i0 < probs.size(); ++i0) {
      if (i0 & mask) continue;
      const std::uint64_t i1 = i0 | mask;
      const double p0 = probs[i0], p1 = probs[i1];
      probs[i0] = (1.0 - e01) * p0 + e10 * p1;
      probs[i1] = e01 * p0 + (1.0 - e10) * p1;
    }
  }
}

std::vector<std::uint64_t> sample_counts(const std::vector<double>& probs,
                                         std::uint64_t shots,
                                         util::Rng& rng) {
  require(!probs.empty(), "empty distribution");
  const std::size_t n = probs.size();
  // Cumulative distribution + one search per shot.
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += std::max(0.0, probs[i]);
    cdf[i] = acc;
  }
  require(acc > 0.0, "distribution has zero mass");
  // The search halves the same ranges for every shot: precompute them.
  // The cdf never decreases (a running sum of non-negative terms), so
  // the entries with !(u < cdf[i]) form a prefix, and its length is what
  // std::upper_bound(cdf, u) returns.
  std::size_t halves[64] = {};
  int steps = 0;
  for (std::size_t len = n; len > 1; len -= halves[steps++])
    halves[steps] = len / 2;
  const double* const c = cdf.data();
  std::vector<std::uint64_t> counts(n, 0);
  double draws[kShotBlock] = {};
  for (std::uint64_t done = 0; done < shots;) {
    const std::size_t m = static_cast<std::size_t>(
        std::min<std::uint64_t>(kShotBlock, shots - done));
    rng.fill_uniform(draws, m);
    for (std::size_t j = 0; j < m; ++j) {
      const double u = draws[j] * acc;
      // Fixed trip count and a conditional move per step, no data-dependent
      // branch: each step keeps the prefix length in [lo, lo + the range
      // still to halve].
      std::size_t lo = 0;
      for (int k = 0; k < steps; ++k)
        lo += u < c[lo + halves[k]] ? 0 : halves[k];
      lo += u < c[lo] ? 0 : 1;
      ++counts[std::min(lo, n - 1)];
    }
    done += m;
  }
  return counts;
}

std::vector<double> counts_to_distribution(
    const std::vector<std::uint64_t>& counts) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  require(total > 0, "no shots recorded");
  std::vector<double> p(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i)
    p[i] = static_cast<double>(counts[i]) / static_cast<double>(total);
  return p;
}

std::string bitstring(std::uint64_t index, int num_qubits) {
  std::string s(static_cast<std::size_t>(num_qubits), '0');
  for (int q = 0; q < num_qubits; ++q)
    if (index & (1ULL << q)) s[static_cast<std::size_t>(num_qubits - 1 - q)] = '1';
  return s;
}

}  // namespace charter::sim
