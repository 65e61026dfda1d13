#include "sim/density_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "math/simd_dispatch.hpp"
#include "sim/kernels.hpp"
#include "util/error.hpp"

namespace charter::sim {

using math::cplx;
using math::Mat2;

namespace {

inline Mat2 conj2(const Mat2& u) {
  Mat2 r;
  for (std::size_t i = 0; i < 4; ++i) r.m[i] = std::conj(u.m[i]);
  return r;
}

inline math::Mat4 conj4(const math::Mat4& u) {
  math::Mat4 r;
  for (std::size_t i = 0; i < 16; ++i) r.m[i] = std::conj(u.m[i]);
  return r;
}

inline std::array<cplx, 64> conj8(const std::array<cplx, 64>& u) {
  std::array<cplx, 64> r;
  for (std::size_t i = 0; i < 64; ++i) r[i] = std::conj(u[i]);
  return r;
}

}  // namespace

DensityMatrixEngine::DensityMatrixEngine(int num_qubits)
    : num_qubits_(num_qubits) {
  require(num_qubits >= 1 && num_qubits <= 14,
          "density matrix engine supports 1..14 qubits");
  rho_.assign(dim2(), cplx(0.0));
  rho_[0] = 1.0;
  diag_row_.resize(dim());
  diag_col_.resize(dim());
}

void DensityMatrixEngine::reset() {
  std::fill(rho_.begin(), rho_.end(), cplx(0.0));
  rho_[0] = 1.0;
}

void DensityMatrixEngine::load_state(const std::vector<cplx>& in) {
  require(in.size() == dim2(), "snapshot width does not match engine");
  rho_ = in;
}

void DensityMatrixEngine::apply_unitary_1q(const Mat2& u, int q) {
  kernels::apply_1q_pair(rho_.data(), dim2(), q, u, q + num_qubits_,
                         conj2(u));
}

void DensityMatrixEngine::apply_diag(const std::array<cplx, 4>& d,
                                     std::uint64_t amask,
                                     std::uint64_t bmask) {
  kernels::fill_diag_tables(num_qubits_, d, amask, bmask, diag_row_.data(),
                            diag_col_.data());
  kernels::apply_diag_rowcol(rho_.data(), num_qubits_, diag_row_.data(),
                             diag_col_.data());
}

void DensityMatrixEngine::apply_diag_1q(cplx d0, cplx d1, int q) {
  // A one-qubit diagonal is a two-qubit one whose second bit never sets.
  apply_diag({d0, d1, d0, d1}, 1ULL << q, 0);
}

void DensityMatrixEngine::apply_cx(int c, int t) {
  kernels::apply_cx_pair(rho_.data(), dim2(), c, t, c + num_qubits_,
                         t + num_qubits_);
}

void DensityMatrixEngine::apply_diag_2q(const std::array<cplx, 4>& d, int qa,
                                        int qb) {
  apply_diag(d, 1ULL << qa, 1ULL << qb);
}

void DensityMatrixEngine::apply_diag_run(const math::DiagOp* ops, int k) {
  for (int j = 0; j < k; ++j) apply_diag(ops[j].d, ops[j].amask, ops[j].bmask);
}

void DensityMatrixEngine::apply_unitary_2q(const math::Mat4& u, int qa,
                                           int qb) {
  // Dense gates have no fused pair kernel; two passes over vec(rho) —
  // U on the row pseudo-qubits, conj(U) on the column pseudo-qubits —
  // realize U rho U^dag exactly.
  kernels::apply_2q(rho_.data(), dim2(), qa, qb, u);
  kernels::apply_2q(rho_.data(), dim2(), qa + num_qubits_, qb + num_qubits_,
                    conj4(u));
}

void DensityMatrixEngine::apply_unitary_3q(const std::array<cplx, 64>& u,
                                           int qa, int qb, int qc) {
  kernels::apply_3q(rho_.data(), dim2(), qa, qb, qc, u);
  kernels::apply_3q(rho_.data(), dim2(), qa + num_qubits_, qb + num_qubits_,
                    qc + num_qubits_, conj8(u));
}

void DensityMatrixEngine::apply_thermal_relaxation(int q, double gamma,
                                                   double pz) {
  if (gamma <= 0.0 && pz <= 0.0) return;
  const std::uint64_t row = 1ULL << q;
  const std::uint64_t col = 1ULL << (q + num_qubits_);
  const double keep = std::sqrt(1.0 - gamma) * (1.0 - 2.0 * pz);
  math::simd::active().thermal_block(rho_.data(), dim2(), row, col, gamma,
                                     keep);
}

void DensityMatrixEngine::apply_depolarizing_1q(int q, double p) {
  if (p <= 0.0) return;
  const std::uint64_t row = 1ULL << q;
  const std::uint64_t col = 1ULL << (q + num_qubits_);
  const double mix = 2.0 * p / 3.0;        // diagonal exchange weight
  const double coh = 1.0 - 4.0 * p / 3.0;  // coherence scaling
  math::simd::active().depol1q_block(rho_.data(), dim2(), row, col, mix, coh);
}

void DensityMatrixEngine::apply_depolarizing_2q(int qa, int qb, double p) {
  if (p <= 0.0) return;
  // rho' = (1-16p/15) rho + (16p/15) * twirl(rho).
  const double lambda = 16.0 * p / 15.0;
  math::simd::active().depol2q_block(
      rho_.data(), dim2(), 1ULL << qa, 1ULL << qb, 1ULL << (qa + num_qubits_),
      1ULL << (qb + num_qubits_), lambda);
}

void DensityMatrixEngine::apply_bitflip(int q, double p) {
  if (p <= 0.0) return;
  const std::uint64_t row = 1ULL << q;
  const std::uint64_t col = 1ULL << (q + num_qubits_);
  math::simd::active().bitflip_block(rho_.data(), dim2(), row, col, p);
}

void DensityMatrixEngine::apply_kraus_1q(std::span<const Mat2> kraus, int q) {
  require(!kraus.empty(), "empty Kraus set");
  // The first term's K rho K^dag seeds the accumulator directly (swap, no
  // zero-fill pass); later terms are computed in scratch and added.  One
  // O(4^n) pass saved per call versus zeroing the accumulator up front.
  scratch_.resize(dim2());
  accum_.resize(dim2());
  bool first = true;
  for (const Mat2& k : kraus) {
    std::copy(rho_.begin(), rho_.end(), scratch_.begin());
    kernels::apply_1q_pair(scratch_.data(), dim2(), q, k, q + num_qubits_,
                           conj2(k));
    if (first) {
      accum_.swap(scratch_);
      first = false;
      continue;
    }
    math::simd::active().accum_add(accum_.data(), scratch_.data(), dim2());
  }
  rho_.swap(accum_);
}

std::vector<double> DensityMatrixEngine::probabilities() const {
  const std::uint64_t d = dim();
  std::vector<double> p(d);
  for (std::uint64_t k = 0; k < d; ++k)
    p[k] = rho_[k + (k << num_qubits_)].real();
  return p;
}

double DensityMatrixEngine::trace() const {
  double t = 0.0;
  for (std::uint64_t k = 0; k < dim(); ++k)
    t += rho_[k + (k << num_qubits_)].real();
  return t;
}

double DensityMatrixEngine::purity() const {
  // Tr(rho^2) = sum |rho_{rc}|^2 because rho is Hermitian.
  return kernels::norm_sq(rho_.data(), dim2());
}

}  // namespace charter::sim
