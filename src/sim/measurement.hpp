#pragma once

/// \file measurement.hpp
/// Readout-error application and shot sampling.
///
/// Engines produce the *true* outcome distribution; the backend then applies
/// per-qubit readout confusion (SPAM) and, when a finite shot count is
/// requested, multinomially samples counts — reproducing the statistical
/// noise floor of a 32,000-shot hardware run, which is central to the
/// paper's multi-reversal story.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace charter::sim {

/// Per-qubit readout confusion: probability of reading 1 given true 0
/// (p_meas1_given0) and reading 0 given true 1 (p_meas0_given1).
struct ReadoutError {
  double p_meas1_given0 = 0.0;
  double p_meas0_given1 = 0.0;
};

/// Applies the tensor product of per-qubit confusion matrices to \p probs
/// in place; probs.size() must be 2^errors.size().
void apply_readout_error(std::vector<double>& probs,
                         const std::vector<ReadoutError>& errors);

/// Shots sample_counts() draws per Rng::fill_uniform() call.
inline constexpr std::size_t kShotBlock = 1024;

/// Multinomially samples \p shots outcomes; returns dense counts.
///
/// Contract: shot s takes the s-th rng.uniform() draw u, scaled by the
/// total mass acc = sum of max(0, p), and lands on the first outcome whose
/// running sum of max(0, p) exceeds u * acc (std::upper_bound over that
/// cdf), clamped to the last outcome.  The draws come in blocks of
/// kShotBlock through Rng::fill_uniform() and the search is branchless,
/// but the draws, the counts and the Rng state afterwards are exactly
/// those of one uniform() call and one upper_bound per shot.
std::vector<std::uint64_t> sample_counts(const std::vector<double>& probs,
                                         std::uint64_t shots, util::Rng& rng);

/// Normalizes counts back to an empirical distribution.
std::vector<double> counts_to_distribution(
    const std::vector<std::uint64_t>& counts);

/// Bitstring rendering of outcome \p index over \p num_qubits qubits,
/// qubit 0 rightmost (e.g. index 5, n=3 -> "101").
std::string bitstring(std::uint64_t index, int num_qubits);

}  // namespace charter::sim
