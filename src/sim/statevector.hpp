#pragma once

/// \file statevector.hpp
/// Noiseless state-vector simulator over the full logical gate set.
///
/// This is the "ideal output" oracle: charter's validation (Table III) and
/// the transpiler's semantics tests compare against it.  It supports every
/// GateKind directly (including CCX and SWAP without decomposition), so
/// logical circuits can be simulated before transpilation.
///
/// The amplitudes are a math::AmpBuffer, so they start on a 64-byte line
/// (math/amp_buffer.hpp); that holds for the lone trajectory engines and
/// for the lane batch's per-lane scratch state alike.

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "math/amp_buffer.hpp"
#include "math/matrix.hpp"

namespace charter::sim {

/// Width (in qubits) at and above which the statevector/trajectory engines
/// switch to *amplitude-level* parallelism: trajectory groups run serially
/// so the O(2^n) kernels may fan out on the kernel pool instead, and state
/// reductions (norm, marginals) use the thread-count-invariant chunked sum.
/// Below the threshold the parallelism is per job / per group, and the
/// reductions are serial left-to-right sums.  Default 20; override with
/// CHARTER_AMP_PARALLEL_MIN_QUBITS (read once at first use).
int amp_parallel_min_qubits();

/// Overrides the amplitude-parallelism threshold (tests/benches); values
/// are clamped to [1, 63].
void set_amp_parallel_min_qubits(int num_qubits);

/// 2^n complex amplitudes with gate application and measurement helpers.
class Statevector {
 public:
  /// Initializes to |0...0> over \p num_qubits qubits.
  explicit Statevector(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  std::uint64_t dim() const { return std::uint64_t{1} << num_qubits_; }
  const math::AmpBuffer& amplitudes() const { return amps_; }
  math::AmpBuffer& mutable_amplitudes() { return amps_; }

  /// Resets to |0...0>.
  void reset();

  /// Sets the state to the computational basis state |bits>.
  void set_basis_state(std::uint64_t bits);

  /// Applies one gate (any GateKind; BARRIER and ID are no-ops).
  void apply(const circ::Gate& g);

  /// Applies every gate of \p c; widths must match.
  void apply(const circ::Circuit& c);

  /// Applies an explicit 2x2 unitary on qubit \p q.
  void apply_unitary_1q(const math::Mat2& u, int q);

  /// Applies an explicit 4x4 unitary on (qa, qb).
  void apply_unitary_2q(const math::Mat4& u, int qa, int qb);

  /// Applies an explicit 8x8 unitary (row-major) on (qa, qb, qc); index
  /// convention bit(qa) + 2*bit(qb) + 4*bit(qc).
  void apply_unitary_3q(const std::array<math::cplx, 64>& u, int qa, int qb,
                        int qc);

  /// Measurement probabilities |amp_k|^2 for all 2^n outcomes.
  std::vector<double> probabilities() const;

  /// Probability of measuring qubit \p q as 1.
  double probability_one(int q) const;

  /// Squared norm (should stay 1 under unitary evolution).
  double norm_sq() const;

  /// Renormalizes to unit norm (used by trajectory collapses).
  void normalize();

  /// Inner product <this|other|.
  math::cplx inner_product(const Statevector& other) const;

 private:
  int num_qubits_;
  math::AmpBuffer amps_;
};

/// Convenience: ideal output distribution of a circuit from |0...0>.
std::vector<double> ideal_probabilities(const circ::Circuit& c);

}  // namespace charter::sim
