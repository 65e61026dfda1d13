#pragma once

/// \file density_matrix.hpp
/// Exact density-matrix engine.
///
/// Stores vec(rho) column-major as a 2n-qubit pseudo-state: index
/// r + 2^n * c holds rho_{rc}.  A unitary U on qubit q becomes
/// U on pseudo-qubit q and conj(U) on pseudo-qubit q+n; the row and column
/// updates are fused into a single pass by the pair kernels
/// (kernels::apply_*_pair, and kernels::apply_diag_rowcol for diagonal
/// gates), bit-identical to the sequential two-pass forms but with half the
/// memory traffic.  Noise channels use fused single-pass closed forms, the
/// channel-block entries of math::simd::KernelTable (math/simd.hpp):
///  - thermal relaxation mixes the 2x2 qubit blocks directly,
///  - depolarizing mixes diagonal entries toward the block average and
///    scales coherences.  The two-qubit form (depol2q_block) runs four
///    groups per AVX-512 register and two per AVX2 register, and is
///    byte-identical to the scalar loop on every path.
///
/// The class is final so that the NoiseProgram tape interpreter's concrete
/// overload (noise/program.hpp) dispatches every op without a virtual call.
///
/// Memory is 16 bytes * 4^n: n=10 -> 16 MiB, n=11 -> 64 MiB; the backend
/// switches to the trajectory engine above kMaxQubits.

#include <vector>

#include "sim/engine.hpp"

namespace charter::sim {

/// Exact open-system simulator implementing NoisyEngine.
class DensityMatrixEngine final : public NoisyEngine {
 public:
  /// Largest width the backend will pick this engine for by default.
  static constexpr int kMaxQubits = 11;

  explicit DensityMatrixEngine(int num_qubits);

  int num_qubits() const override { return num_qubits_; }
  void reset() override;

  void apply_unitary_1q(const math::Mat2& u, int q) override;
  void apply_diag_1q(math::cplx d0, math::cplx d1, int q) override;
  void apply_cx(int c, int t) override;
  void apply_diag_2q(const std::array<math::cplx, 4>& d, int qa,
                     int qb) override;
  /// One apply_diag_rowcol pass per op: a one-pass run form measured no
  /// gain while vec(rho) fits in L2 (ROADMAP, diagonal runs).
  void apply_diag_run(const math::DiagOp* ops, int k) override;
  void apply_unitary_2q(const math::Mat4& u, int qa, int qb) override;
  void apply_unitary_3q(const std::array<math::cplx, 64>& u, int qa, int qb,
                        int qc) override;

  void apply_thermal_relaxation(int q, double gamma, double pz) override;
  void apply_depolarizing_1q(int q, double p) override;
  void apply_depolarizing_2q(int qa, int qb, double p) override;
  void apply_bitflip(int q, double p) override;
  void apply_kraus_1q(std::span<const math::Mat2> kraus, int q) override;

  std::vector<double> probabilities() const override;

  std::unique_ptr<NoisyEngine> clone() const override;

  /// Copies vec(rho) into \p out (cheap snapshot for checkpointing; the
  /// scratch buffers are transient and excluded).
  void save_state(std::vector<math::cplx>& out) const { out = rho_; }

  /// Restores a state saved by save_state(); width must match.
  void load_state(const std::vector<math::cplx>& in);

  /// Bytes one saved snapshot occupies (16 bytes * 4^n).
  std::size_t state_bytes() const {
    return dim2() * sizeof(math::cplx);
  }

  /// Trace of rho (should remain 1 under CPTP evolution).
  double trace() const;

  /// Purity Tr(rho^2); 1 for pure states, 1/2^n for maximally mixed.
  double purity() const;

  /// Raw vec(rho) access for tests.
  const std::vector<math::cplx>& raw() const { return rho_; }

 private:
  std::uint64_t dim() const { return std::uint64_t{1} << num_qubits_; }
  std::uint64_t dim2() const { return std::uint64_t{1} << (2 * num_qubits_); }

  /// diag(d) on the row pseudo-qubits and diag(conj(d)) on the column ones
  /// (index convention as in kernels::fill_diag_tables).
  void apply_diag(const std::array<math::cplx, 4>& d, std::uint64_t amask,
                  std::uint64_t bmask);

  int num_qubits_;
  std::vector<math::cplx> rho_;
  // 2^n-entry row / column factor tables of the current diagonal op.
  std::vector<math::cplx> diag_row_;
  std::vector<math::cplx> diag_col_;
  // Scratch buffers for the generic Kraus path.
  std::vector<math::cplx> scratch_;
  std::vector<math::cplx> accum_;
};

}  // namespace charter::sim
