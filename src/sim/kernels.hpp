#pragma once

/// \file kernels.hpp
/// Low-level gate kernels over raw amplitude arrays.
///
/// These are the hot loops of every engine.  They operate on a contiguous
/// array of 2^n complex amplitudes; qubit q corresponds to bit q of the state
/// index (qubit 0 = least significant).  The density-matrix engine reuses the
/// same kernels by treating vec(rho) as a 2n-qubit state.
///
/// Since the SIMD layer landed, this header is a thin forwarding shim: each
/// hot kernel dispatches through math::simd::active() to the scalar, width-2
/// (SSE2/NEON), AVX2+FMA or AVX-512 implementation selected at runtime
/// (math/simd_dispatch.hpp).  The scalar path is bit-identical to the
/// historical loops that used to live here; the vector paths agree with it
/// to <= 1e-12 and are individually deterministic — fixed per-element
/// operation order, bit-identical across thread counts.  Rarely-hot kernels
/// (dense 8x8 unitaries, Toffoli, SWAP, reductions) remain scalar inline.
///
/// The density-matrix channel blocks (thermal relaxation, one- and two-qubit
/// depolarizing, bit flip) are KernelTable entries too, which the
/// density-matrix engine calls directly.  The AVX-512 table carries its own
/// width-8 form of every density-matrix entry, with the AVX2 form's
/// per-element arithmetic, so the two paths give byte-identical vec(rho)
/// (1.2-1.6x faster than AVX2 on most of them at n = 5..9, see
/// math/simd_kernels_avx512.cpp).  The two-qubit depolarizing block uses no
/// FMA on any path, so every path matches the scalar loop exactly.
///
/// Pair kernels.  Every coherent density-matrix update is a *pair* of
/// single-qubit-style updates — U on pseudo-qubit q and conj(U) on q+n —
/// which the plain kernels would realize as two full passes over 16*4^n
/// bytes.  apply_1q_pair and apply_cx_pair fuse the two into one pass: each
/// 4-amplitude group is loaded once, the first update's arithmetic is applied
/// and then the second's, so the results match the sequential two-pass forms
/// (bit-identically on the scalar path) while halving memory traffic.
///
/// Diagonal gates need no groups at all: the factor for rho_{rc} is
/// row[r] * col[c], so apply_diag_rowcol takes two 2^n-entry tables (built
/// per op by the density-matrix engine from d and conj(d)) and walks
/// vec(rho) column by column — each column a contiguous 2^n-element segment
/// scaled by the row table, then by one broadcast column factor.  No bit
/// tests or gathers remain in the inner loop, and each path performs the
/// same two multiplies in the same order as the two-pass form, so the
/// result is bit-identical to it on every path.  It parallelizes over
/// columns with grain 32, so it fans out on the kernel pool from n = 8 on.
/// That only matters off the exec pool (direct FakeBackend::run calls);
/// the checkpoint base sweep runs under util::SerialKernels.
///
/// Diagonal runs.  The tape interpreter hands a run of consecutive
/// diagonal ops to the statevector engines as one apply_diag_run call:
/// one sweep in which each amplitude takes every op's factor in tape
/// order, with the same complex multiply as apply_diag_1q / apply_diag_2q
/// on that path, so the result is byte-identical to the per-op calls and
/// the k - 1 intermediate passes over the state are gone.  The
/// density-matrix engine keeps one apply_diag_rowcol pass per op: a run
/// form of it measured 0.86-1.12x while vec(rho) fits in L2 (ROADMAP).
///
/// Lane-batch sweep.  The trajectory lane batch (sim/trajectory.hpp)
/// defers its element-local ops, diagonal runs and the no-jump thermal
/// branch's damp-and-scale, and applies them in one lane_sweep pass over
/// its interleaved block.  A thermal op's pass also reads every lane's P(1)
/// and no-jump norm from the values it writes.  The ops take each path's
/// own per-op arithmetic and the sums the scalar body's order (no FMA), so
/// a lane's bytes equal a lone engine's.  A pass with sums runs serially,
/// as the lane batch's groups are already one task each.
///
/// These kernels are what the NoiseProgram tape interpreter dispatches to
/// through the engine (see noise/program.hpp).
///
/// Iteration order is cache-blocked by construction: groups are enumerated
/// by inserting zero bits into an ascending counter, so the 2 (or 4) strided
/// streams a kernel reads all advance sequentially through memory and each
/// cache line is touched exactly once per pass.
///
/// All kernels are in-place, and, apart from a lane sweep with sums, fan out
/// on the kernel pool above a size threshold (util/parallel.hpp).
///
/// Alignment.  The kernels accept any 16-byte-aligned array and give the
/// same bytes on any address, but every engine hands them a
/// math::AmpBuffer, which starts on a 64-byte line (math/amp_buffer.hpp):
/// vec(rho) and the density-matrix scratch and factor tables, the
/// statevector amplitudes and the trajectory lane block.  Then no AVX-512
/// load or store of a pass spans two cache lines.

#include <array>
#include <cstdint>

#include "math/matrix.hpp"
#include "math/simd_dispatch.hpp"
#include "util/parallel.hpp"

namespace charter::sim {

using math::cplx;
using math::Mat2;
using math::Mat4;

namespace kernels {

/// Applies a general 2x2 unitary (or Kraus operator) on qubit \p q.
inline void apply_1q(cplx* a, std::uint64_t dim, int q, const Mat2& u) {
  math::simd::active().apply_1q(a, dim, q, u);
}

/// Applies the diagonal gate diag(d0, d1) on qubit \p q (e.g. RZ).
inline void apply_diag_1q(cplx* a, std::uint64_t dim, int q, cplx d0,
                          cplx d1) {
  math::simd::active().apply_diag_1q(a, dim, q, d0, d1);
}

/// Applies two independent 2x2 operators in one pass: \p ua on qubit \p qa
/// first, then \p ub on qubit \p qb (qa != qb).  Matches apply_1q(qa, ua)
/// followed by apply_1q(qb, ub): within each 4-amplitude group the ua-pairs
/// are transformed first and the ub-pairs second.
inline void apply_1q_pair(cplx* a, std::uint64_t dim, int qa, const Mat2& ua,
                          int qb, const Mat2& ub) {
  math::simd::active().apply_1q_pair(a, dim, qa, ua, qb, ub);
}

/// Applies a diagonal phase to vec(rho) of an \p n-qubit density matrix:
/// rho_{rc} = (rho_{rc} * row[r]) * col[c], with 2^n-entry factor tables.
/// Bit-identical, on every path, to apply_diag_1q / apply_diag_2q on the row
/// pseudo-qubits followed by the conjugate gate on the column ones.
inline void apply_diag_rowcol(cplx* a, int n, const cplx* row,
                              const cplx* col) {
  math::simd::active().apply_diag_rowcol(a, n, row, col);
}

/// Fills apply_diag_rowcol's 2^n-entry tables for diag(d) on an n-qubit
/// density matrix: row[k] = d[i], col[k] = conj(d[i]) with i = bit(amask) +
/// 2*bit(bmask) of k (bmask 0 for a one-qubit gate).
inline void fill_diag_tables(int n, const std::array<cplx, 4>& d,
                             std::uint64_t amask, std::uint64_t bmask,
                             cplx* row, cplx* col) {
  const std::array<cplx, 4> dc = {std::conj(d[0]), std::conj(d[1]),
                                  std::conj(d[2]), std::conj(d[3])};
  for (std::uint64_t k = 0; k < (std::uint64_t{1} << n); ++k) {
    const unsigned i = ((k & amask) ? 1u : 0u) | ((k & bmask) ? 2u : 0u);
    row[k] = d[i];
    col[k] = dc[i];
  }
}

/// Applies two CX gates with disjoint bit sets in one pass: control \p c1 /
/// target \p t1, then control \p c2 / target \p t2.  Requires
/// {c1, t1} and {c2, t2} disjoint (the density-matrix row/column halves
/// always are).  A pure permutation: bit-identical on every path.
inline void apply_cx_pair(cplx* a, std::uint64_t dim, int c1, int t1, int c2,
                          int t2) {
  math::simd::active().apply_cx_pair(a, dim, c1, t1, c2, t2);
}

/// Applies Pauli-X on qubit \p q (amplitude swap).
inline void apply_x(cplx* a, std::uint64_t dim, int q) {
  math::simd::active().apply_x(a, dim, q);
}

/// Applies CX with control \p c and target \p t.
inline void apply_cx(cplx* a, std::uint64_t dim, int c, int t) {
  math::simd::active().apply_cx(a, dim, c, t);
}

/// Applies the diagonal two-qubit gate diag(d) on (qa, qb); the 2-bit index
/// into \p d is bit(qa) + 2*bit(qb).
inline void apply_diag_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                          const std::array<cplx, 4>& d) {
  math::simd::active().apply_diag_2q(a, dim, qa, qb, d);
}

/// Applies 1 <= k <= math::kMaxDiagRun consecutive diagonal ops in one
/// sweep, each element taking ops[0]'s factor first (math::DiagOp; masks in
/// this array's bit space).  Byte-identical to k apply_diag_1q /
/// apply_diag_2q calls on every path.
inline void apply_diag_run(cplx* a, std::uint64_t dim, const math::DiagOp* ops,
                           int k) {
  math::simd::active().apply_diag_run(a, dim, ops, k);
}

/// One pass over a trajectory lane block (\p lanes unravellings of \p dim
/// amplitudes, amplitude i of lane t at a[i * lanes + t]): every element
/// takes the k deferred ops (math::LaneOp, masks in one lane's qubit space)
/// in order, with the bytes of the per-op kernels on the active path.  With
/// \p sums_mask = 1 << q it then reads, per lane, p1 = P(qubit q is 1) and
/// norm = the squared norm after K0 = diag(1, keep), each a left-to-right
/// sum in ascending i that is byte-identical on every path, and runs
/// serially; with sums_mask 0 it only applies the ops.
inline void lane_sweep(cplx* a, std::uint64_t dim, int lanes,
                       const math::LaneOp* ops, int k,
                       std::uint64_t sums_mask, double keep, double* p1,
                       double* norm) {
  math::simd::active().lane_sweep(a, dim, lanes, ops, k, sums_mask, keep, p1,
                                  norm);
}

/// Applies a general 4x4 unitary on (qa, qb); matrix index convention as in
/// gate_unitary_2q: idx = bit(qa) + 2*bit(qb).  Hot since the wide-gate
/// fusion pass started emitting dense kUnitary2q tape ops, so it dispatches
/// through the SIMD layer like the 1q kernels.
inline void apply_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                     const Mat4& u) {
  math::simd::active().apply_2q(a, dim, qa, qb, u);
}

/// Applies a general 8x8 unitary (row-major) on (qa, qb, qc); index
/// convention bit(qa) + 2*bit(qb) + 4*bit(qc).  Reachable only at fusion
/// width 3, and each group's 8x8 matvec already amortizes the gather, so a
/// cache-blocked scalar loop suffices.
inline void apply_3q(cplx* a, std::uint64_t dim, int qa, int qb, int qc,
                     const std::array<cplx, 64>& u) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t cmask = 1ULL << qc;
  std::uint64_t sorted[3] = {amask, bmask, cmask};
  if (sorted[0] > sorted[1]) std::swap(sorted[0], sorted[1]);
  if (sorted[1] > sorted[2]) std::swap(sorted[1], sorted[2]);
  if (sorted[0] > sorted[1]) std::swap(sorted[0], sorted[1]);
  const std::uint64_t m0 = sorted[0], m1 = sorted[1], m2 = sorted[2];
  util::parallel_for(
      static_cast<std::int64_t>(dim >> 3), [=, &u](std::int64_t i) {
        // Insert 0 bits at the three qubit positions, lowest first.
        std::uint64_t base = static_cast<std::uint64_t>(i);
        base = ((base & ~(m0 - 1)) << 1) | (base & (m0 - 1));
        base = ((base & ~(m1 - 1)) << 1) | (base & (m1 - 1));
        base = ((base & ~(m2 - 1)) << 1) | (base & (m2 - 1));
        std::uint64_t idx[8];
        for (int k = 0; k < 8; ++k)
          idx[k] = base | ((k & 1) ? amask : 0) | ((k & 2) ? bmask : 0) |
                   ((k & 4) ? cmask : 0);
        cplx in[8];
        for (int k = 0; k < 8; ++k) in[k] = a[idx[k]];
        for (int r = 0; r < 8; ++r) {
          cplx acc = 0.0;
          for (int k = 0; k < 8; ++k)
            acc += u[static_cast<std::size_t>(r * 8 + k)] * in[k];
          a[idx[r]] = acc;
        }
      });
}

/// Applies Toffoli (controls c0, c1; target t).
inline void apply_ccx(cplx* a, std::uint64_t dim, int c0, int c1, int t) {
  const std::uint64_t c0m = 1ULL << c0;
  const std::uint64_t c1m = 1ULL << c1;
  const std::uint64_t tm = 1ULL << t;
  util::parallel_for(static_cast<std::int64_t>(dim >> 1), [=](std::int64_t i) {
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    const std::uint64_t i0 = ((ui & ~(tm - 1)) << 1) | (ui & (tm - 1));
    if ((i0 & c0m) && (i0 & c1m)) std::swap(a[i0], a[i0 | tm]);
  });
}

/// Applies SWAP(qa, qb).
inline void apply_swap(cplx* a, std::uint64_t dim, int qa, int qb) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  util::parallel_for(static_cast<std::int64_t>(dim), [=](std::int64_t i) {
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    // Swap amplitudes where bit a = 1, bit b = 0 with the mirrored index;
    // touch each pair once.
    if ((ui & amask) && !(ui & bmask)) {
      const std::uint64_t j = (ui & ~amask) | bmask;
      std::swap(a[ui], a[j]);
    }
  });
}

/// Squared norm of the state: the serial left-to-right sum on every thread
/// and SIMD path (Statevector::norm_sq switches to the chunked sum from
/// amp_parallel_min_qubits() on).
inline double norm_sq(const cplx* a, std::uint64_t dim) {
  double total = 0.0;
  for (std::uint64_t i = 0; i < dim; ++i) total += std::norm(a[i]);
  return total;
}

/// Scales all amplitudes by \p s.
inline void scale(cplx* a, std::uint64_t dim, double s) {
  util::parallel_for(static_cast<std::int64_t>(dim),
                     [=](std::int64_t i) { a[i] *= s; });
}

}  // namespace kernels
}  // namespace charter::sim
