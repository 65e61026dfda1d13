#pragma once

/// \file gate.hpp
/// Gate model: kinds, metadata, unitaries, and inverses.
///
/// The physical basis set matches the IBM devices the paper targets:
/// {RZ, SX, X, CX} plus SXDG, the physical realization of SX-dagger used by
/// reversed pairs (same calibration as SX — see noise/noise_model.hpp).  A
/// wider logical set (H, S, T, rotations, controlled gates, SWAP, CCX,
/// two-qubit interactions) is accepted by the circuit builder and lowered to
/// the basis by the transpiler.
///
/// Conventions: qubit 0 is the least-significant bit of a state index.  For a
/// two-qubit gate on (a, b), the Mat4 acts on the 2-bit index
/// `bit(a) + 2*bit(b)`; for controlled gates the *first* operand is the
/// control.

#include <array>
#include <cstdint>
#include <string>

#include "math/matrix.hpp"

namespace charter::circ {

/// Every gate kind the circuit IR can hold.
enum class GateKind : std::uint8_t {
  // Physical basis gates (runnable on the noisy backends).
  RZ,    ///< virtual frame change, diag(e^{-i t/2}, e^{i t/2}); noiseless
  SX,    ///< sqrt(X)
  SXDG,  ///< sqrt(X)^dagger — physical op used by reversed pairs
  X,     ///< Pauli X
  CX,    ///< controlled-X (control = first operand)
  // Extended logical gates (lowered by the transpiler).
  ID,    ///< explicit identity / delay placeholder
  H,     ///< Hadamard
  S,     ///< phase gate diag(1, i)
  SDG,   ///< diag(1, -i)
  T,     ///< diag(1, e^{i pi/4})
  TDG,   ///< diag(1, e^{-i pi/4})
  RX,    ///< rotation about X
  RY,    ///< rotation about Y
  U3,    ///< generic one-qubit unitary U3(theta, phi, lambda)
  CZ,    ///< controlled-Z
  CP,    ///< controlled-phase diag(1,1,1,e^{i t})
  CRZ,   ///< controlled-RZ
  SWAP,  ///< qubit exchange
  RZZ,   ///< exp(-i t/2 Z Z)
  RXX,   ///< exp(-i t/2 X X)
  RYY,   ///< exp(-i t/2 Y Y)
  CCX,   ///< Toffoli
  // Non-unitary operations.
  RESET,  ///< active qubit reset to |0> (non-unitary; cannot be reversed)
  // Structural directives.
  BARRIER,  ///< scheduling fence across all qubits; never reordered through
};

/// Bit flags attached to gates; used to mark program regions.
enum GateFlags : std::uint8_t {
  kFlagNone = 0,
  /// Input-preparation gate (reversed as a block for input-impact analysis).
  kFlagInputPrep = 1u << 0,
  /// Gate inserted by charter as part of a reversed pair.
  kFlagReversal = 1u << 1,
  /// Barrier inserted by the serialization mitigation pass.
  kFlagMitigation = 1u << 2,
};

/// One operation in a circuit.  Fixed footprint, no heap allocation.
struct Gate {
  GateKind kind = GateKind::ID;
  std::uint8_t num_qubits = 0;  ///< 0 for BARRIER (spans all qubits)
  std::uint8_t num_params = 0;
  std::uint8_t flags = kFlagNone;
  std::array<std::int16_t, 3> qubits{{-1, -1, -1}};
  std::array<double, 3> params{{0.0, 0.0, 0.0}};

  double param0() const { return params[0]; }
  bool has_flag(GateFlags f) const { return (flags & f) != 0; }
  bool touches(int q) const {
    for (std::uint8_t i = 0; i < num_qubits; ++i)
      if (qubits[i] == q) return true;
    return false;
  }
};

/// Human-readable lowercase name ("rz", "sx", "cx", ...).
std::string gate_name(GateKind kind);

/// Inverse of gate_name; throws NotFound for unknown names.
GateKind gate_kind_from_name(const std::string& name);

/// Operand count the kind requires (0 for BARRIER = all qubits).
int gate_arity(GateKind kind);

/// Number of parameters the kind requires.
int gate_param_count(GateKind kind);

/// True for members of the physical basis set {RZ, SX, SXDG, X, CX}.
bool is_basis_gate(GateKind kind);

/// True for gates that cost nothing on hardware (RZ frame changes, ID,
/// BARRIER); these are skipped by charter's reversal sweep.
bool is_virtual(GateKind kind);

/// True for one-qubit non-virtual kinds.
bool is_one_qubit_physical(GateKind kind);

/// Factory helpers; validate arity/param count.
Gate make_gate(GateKind kind, std::initializer_list<int> qubits,
               std::initializer_list<double> params = {},
               std::uint8_t flags = kFlagNone);
Gate make_barrier(std::uint8_t flags = kFlagNone);

/// The gate implementing the Hermitian adjoint of \p g.  Angles negate,
/// SX<->SXDG, self-inverse kinds map to themselves, U3 swaps phi/lambda.
Gate inverse_gate(const Gate& g);

/// 2x2 unitary for a one-qubit gate; requires gate_arity(kind) == 1.
math::Mat2 gate_unitary_1q(const Gate& g);

/// 4x4 unitary for a two-qubit gate; requires gate_arity(kind) == 2.
math::Mat4 gate_unitary_2q(const Gate& g);

}  // namespace charter::circ
