#pragma once

/// \file engine.hpp
/// Abstract interface every noisy simulation engine implements.
///
/// The noise executor walks a scheduled circuit and emits primitive
/// operations against this interface; the density-matrix engine realizes the
/// channels exactly while the trajectory engine realizes them by Kraus
/// sampling.  Virtual dispatch is per-op — negligible next to the O(2^n)
/// kernel work each call performs.

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "math/matrix.hpp"

namespace charter::sim {

/// Primitive operations a noisy engine must support.
class NoisyEngine {
 public:
  virtual ~NoisyEngine() = default;

  /// Number of qubits the engine was constructed for.
  virtual int num_qubits() const = 0;

  /// Returns to |0...0><0...0| (or |0...0> for trajectories).
  virtual void reset() = 0;

  // ---- coherent operations ----

  /// General one-qubit unitary on qubit q.
  virtual void apply_unitary_1q(const math::Mat2& u, int q) = 0;

  /// Diagonal one-qubit phase diag(d0, d1) (RZ fast-path).
  virtual void apply_diag_1q(math::cplx d0, math::cplx d1, int q) = 0;

  /// CX with control c and target t.
  virtual void apply_cx(int c, int t) = 0;

  /// Diagonal two-qubit phase; index convention bit(qa) + 2*bit(qb).
  /// Used for ZZ-crosstalk accumulation.
  virtual void apply_diag_2q(const std::array<math::cplx, 4>& d, int qa,
                             int qb) = 0;

  /// A run of 1 <= k <= math::kMaxDiagRun consecutive diagonal ops, masks
  /// in qubit space (bit q = qubit q); same result as applying them one by
  /// one with apply_diag_1q / apply_diag_2q.  The tape interpreter hands
  /// every maximal run of kDiag1q/kDiag2q ops to this.
  virtual void apply_diag_run(const math::DiagOp* ops, int k) = 0;

  /// Dense two-qubit unitary; index convention bit(qa) + 2*bit(qb).
  /// Emitted by the wide-gate fusion pass (noise::fused_wide).
  virtual void apply_unitary_2q(const math::Mat4& u, int qa, int qb) = 0;

  /// Dense three-qubit unitary (row-major 8x8); index convention
  /// bit(qa) + 2*bit(qb) + 4*bit(qc).  Emitted at fusion width 3.
  virtual void apply_unitary_3q(const std::array<math::cplx, 64>& u, int qa,
                                int qb, int qc) = 0;

  // ---- noise channels ----

  /// Combined T1/T2 ("thermal relaxation") channel: amplitude damping with
  /// probability gamma followed by phase flip (Z) with probability pz.
  virtual void apply_thermal_relaxation(int q, double gamma, double pz) = 0;

  /// One-qubit depolarizing channel with error probability p (uniform over
  /// the three non-identity Paulis).
  virtual void apply_depolarizing_1q(int q, double p) = 0;

  /// Two-qubit depolarizing channel with error probability p (uniform over
  /// the fifteen non-identity two-qubit Paulis).
  virtual void apply_depolarizing_2q(int qa, int qb, double p) = 0;

  /// Bit-flip channel (X with probability p); models state-prep error.
  virtual void apply_bitflip(int q, double p) = 0;

  /// Generic one-qubit Kraus channel (validated CPTP by callers/tests).
  virtual void apply_kraus_1q(std::span<const math::Mat2> kraus, int q) = 0;

  // ---- readout ----

  /// Measurement probabilities over all 2^n outcomes (before readout error).
  virtual std::vector<double> probabilities() const = 0;

  // ---- checkpointing ----

  /// Deep copy of this engine: quantum state plus, for stochastic engines,
  /// the random stream.  Evolving the clone and the original with the same
  /// operations produces bit-identical results.  (The exec layer's
  /// density-matrix checkpointing uses the cheaper concrete
  /// save_state()/load_state(); clone() is the engine-agnostic form for
  /// callers that hold only the interface.)
  virtual std::unique_ptr<NoisyEngine> clone() const = 0;
};

}  // namespace charter::sim
