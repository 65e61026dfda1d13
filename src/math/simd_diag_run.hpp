#pragma once

/// \file simd_diag_run.hpp
/// Shared body of the vector paths' KernelTable::apply_diag_run.
///
/// Included only by the vector kernel units, each of which instantiates it
/// with its own register type V (CVec2d, CVec4d or CVec8d) holding W
/// consecutive amplitudes, so every instantiation is compiled for that
/// unit's ISA alone.
///
/// A register at base index i (a multiple of W) takes from op j the factor
/// d[bit(e & amask) + 2*bit(e & bmask)] in lane t, e = i + t.  The masks
/// >= W are the same for every lane of the register, the masks < W (qubits
/// 0 and 1 on AVX-512, qubit 0 on AVX2) vary by lane only, so each op has
/// at most four distinct factor registers — broadcasts for masks >= W,
/// per-lane gathers otherwise, the values the per-op kernels build.  They
/// are built once per call, split for cmul (CSplit: the per-register
/// factor shuffles leave the loop, the bytes do not change), and picked per
/// register by its high mask bits.
/// The sweep walks the block in L1-sized pieces and applies the ops to each
/// piece in chunks of four, two registers at a time, with the unit's cmul:
/// every element takes every op's factor in tape order.  cmul is lane-wise,
/// so every element sees exactly the products k per-op calls perform.  The
/// chunks have a compile-time trip count: a runtime-k inner loop left the
/// cmul chains latency-bound and ran 0.6-0.9x of the per-op kernels.

#include <cstdint>

#include "math/simd.hpp"
#include "util/parallel.hpp"

namespace charter::math::simd {

/// Factor registers of one run, for register type V of W amplitudes.
template <typename V, int W>
struct DiagRunFactors {
  CSplit<V> f[kMaxDiagRun][4];  ///< split once, applied per register
  std::uint64_t hi_a[kMaxDiagRun];  ///< amask if >= W, else 0
  std::uint64_t hi_b[kMaxDiagRun];  ///< bmask if >= W, else 0

  DiagRunFactors(const DiagOp* ops, int k) {
    for (int j = 0; j < k; ++j) {
      const DiagOp& op = ops[j];
      hi_a[j] = op.amask >= W ? op.amask : 0;
      hi_b[j] = op.bmask >= W ? op.bmask : 0;
      for (unsigned h = 0; h < 4; ++h) {
        const std::uint64_t base =
            ((h & 1u) ? hi_a[j] : 0) | ((h & 2u) ? hi_b[j] : 0);
        cplx lanes[W];
        for (int t = 0; t < W; ++t) {
          const std::uint64_t e = base | static_cast<std::uint64_t>(t);
          lanes[t] = op.d[((e & op.amask) ? 1u : 0u) |
                          ((e & op.bmask) ? 2u : 0u)];
        }
        f[j][h] = csplit(V::load(lanes));
      }
    }
  }

  /// Op j's factor for the register at base index i.
  const CSplit<V>& at(int j, std::uint64_t i) const {
    return f[j][((i & hi_a[j]) ? 1u : 0u) | ((i & hi_b[j]) ? 2u : 0u)];
  }
};

/// Registers per block: a block of 16 registers (1 KiB on AVX-512) stays
/// in L1 while every chunk of ops passes over it.
constexpr int kDiagRunBlockRegs = 16;

/// Ops [j, j + K) on amplitudes [lo, hi), two registers per step.  The
/// ops' masks and factor rows are copied into locals first: the vector
/// stores may alias any memory, so values read through \p r would be
/// reloaded after every store.
template <int K, typename V, int W>
inline void diag_run_chunk(cplx* a, std::uint64_t lo, std::uint64_t hi,
                           const DiagRunFactors<V, W>& r, int j) {
  if constexpr (K == 0) return;
  std::uint64_t ma[K > 0 ? K : 1], mb[K > 0 ? K : 1];
  unsigned odd[K > 0 ? K : 1];  // index bits set by bit W alone
  const CSplit<V>* f[K > 0 ? K : 1];
  for (int c = 0; c < K; ++c) {
    ma[c] = r.hi_a[j + c];
    mb[c] = r.hi_b[j + c];
    odd[c] = (ma[c] == W ? 1u : 0u) | (mb[c] == W ? 2u : 0u);
    f[c] = r.f[j + c];
  }
  for (std::uint64_t i = lo; i < hi; i += 2 * W) {
    // i has bit W clear, so the second register's index differs from the
    // first's only where a mask is W itself.
    V x0 = V::load(a + i);
    V x1 = V::load(a + i + W);
    for (int c = 0; c < K; ++c) {
      const unsigned h = ((i & ma[c]) ? 1u : 0u) | ((i & mb[c]) ? 2u : 0u);
      x0 = cmul(x0, f[c][h]);
      x1 = cmul(x1, f[c][h | odd[c]]);
    }
    x0.store(a + i);
    x1.store(a + i + W);
  }
}

/// The sweep for k = 4 * full + Tail ops, block by block.  The grain keeps
/// the per-op kernels' threshold: they fan out at the same dim (W
/// amplitudes per iteration, grain 1024).
template <int Tail, typename V, int W>
void diag_run_sweep(cplx* a, std::uint64_t dim,
                    const DiagRunFactors<V, W>& r, int full) {
  constexpr std::uint64_t kBlock = kDiagRunBlockRegs * W;
  const std::uint64_t block = dim < kBlock ? dim : kBlock;
  util::parallel_for(
      static_cast<std::int64_t>(dim / block),
      [=, &r](std::int64_t p) {
        const std::uint64_t lo = static_cast<std::uint64_t>(p) * block;
        for (int c = 0; c < full; ++c)
          diag_run_chunk<4>(a, lo, lo + block, r, 4 * c);
        diag_run_chunk<Tail>(a, lo, lo + block, r, 4 * full);
      },
      /*grain=*/1024 / kDiagRunBlockRegs);
}

/// apply_diag_run on register type V.  A block of one register (AVX2 at
/// n = 1) runs the ops on it directly.
template <typename V, int W>
void diag_run(cplx* a, std::uint64_t dim, const DiagOp* ops, int k) {
  const DiagRunFactors<V, W> r(ops, k);
  if (dim < 2 * W) {
    for (std::uint64_t i = 0; i + W <= dim; i += W) {
      V x = V::load(a + i);
      for (int j = 0; j < k; ++j) x = cmul(x, r.at(j, i));
      x.store(a + i);
    }
    return;
  }
  switch (k % 4) {
    case 0:
      diag_run_sweep<0>(a, dim, r, k / 4);
      return;
    case 1:
      diag_run_sweep<1>(a, dim, r, k / 4);
      return;
    case 2:
      diag_run_sweep<2>(a, dim, r, k / 4);
      return;
    default:
      diag_run_sweep<3>(a, dim, r, k / 4);
      return;
  }
}

}  // namespace charter::math::simd
