#pragma once

/// \file matrix.hpp
/// Fixed-size complex matrices for gate algebra.
///
/// The simulator only ever needs 2x2 (one-qubit) and 4x4 (two-qubit)
/// unitaries, so both are concrete value types with inline storage — no
/// dynamic allocation on any simulation path.

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>

namespace charter::math {

using cplx = std::complex<double>;

/// One op of a diagonal run (simd::KernelTable::apply_diag_run): amplitude
/// i is multiplied by d[bit(i & amask) + 2*bit(i & bmask)].  A one-qubit
/// op has bmask = 0 and d = {d0, d1, d0, d1}.
struct DiagOp {
  std::uint64_t amask = 0;
  std::uint64_t bmask = 0;
  std::array<cplx, 4> d{};
};

/// Most ops one apply_diag_run call takes; the tape interpreter splits
/// longer runs.
inline constexpr int kMaxDiagRun = 16;

/// One deferred element-local op of a trajectory lane block
/// (simd::KernelTable::lane_sweep), masks in one lane's qubit space: either
/// a diagonal op, the same in every lane, or a no-jump damp-and-scale, which
/// turns amplitude i of lane t into (bit(i & mask) ? a * keep : a) *
/// scale[t].
struct LaneOp {
  bool damp = false;  ///< false: `diag`; true: the damp-and-scale
  DiagOp diag{};
  std::uint64_t mask = 0;
  double keep = 1.0;
  std::array<double, 4> scale{};  ///< per lane; a block has at most 4
};

/// Most ops one lane_sweep call takes.
inline constexpr int kMaxLaneOps = 16;

/// Row-major 2x2 complex matrix.
struct Mat2 {
  std::array<cplx, 4> m{};

  cplx& operator()(std::size_t r, std::size_t c) { return m[2 * r + c]; }
  const cplx& operator()(std::size_t r, std::size_t c) const {
    return m[2 * r + c];
  }

  static Mat2 identity();
  static Mat2 zero();
};

/// Row-major 4x4 complex matrix.
struct Mat4 {
  std::array<cplx, 16> m{};

  cplx& operator()(std::size_t r, std::size_t c) { return m[4 * r + c]; }
  const cplx& operator()(std::size_t r, std::size_t c) const {
    return m[4 * r + c];
  }

  static Mat4 identity();
  static Mat4 zero();
};

/// Matrix product a*b.
Mat2 mul(const Mat2& a, const Mat2& b);
Mat4 mul(const Mat4& a, const Mat4& b);

/// Hermitian adjoint (conjugate transpose) — the inverse for unitaries.
Mat2 adjoint(const Mat2& a);
Mat4 adjoint(const Mat4& a);

/// Scalar multiple.
Mat2 scale(const Mat2& a, cplx s);
Mat4 scale(const Mat4& a, cplx s);

/// Sum.
Mat2 add(const Mat2& a, const Mat2& b);
Mat4 add(const Mat4& a, const Mat4& b);

/// Kronecker product (a on the higher-order qubit).
Mat4 kron(const Mat2& a, const Mat2& b);

/// Max-norm distance between matrices.
double max_abs_diff(const Mat2& a, const Mat2& b);
double max_abs_diff(const Mat4& a, const Mat4& b);

/// True when a is unitary within \p tol.
bool is_unitary(const Mat2& a, double tol = 1e-10);
bool is_unitary(const Mat4& a, double tol = 1e-10);

/// True when a == e^{i phi} b for some global phase phi, within \p tol.
bool equal_up_to_phase(const Mat2& a, const Mat2& b, double tol = 1e-9);
bool equal_up_to_phase(const Mat4& a, const Mat4& b, double tol = 1e-9);

/// True when the Kraus set {k} satisfies sum k_i^dag k_i == I (a valid CPTP
/// channel) within \p tol.
bool is_cptp(const std::array<const Mat2*, 4>& kraus, std::size_t count,
             double tol = 1e-10);

}  // namespace charter::math
