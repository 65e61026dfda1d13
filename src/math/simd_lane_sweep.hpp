#pragma once

/// \file simd_lane_sweep.hpp
/// Shared body of KernelTable::lane_sweep.
///
/// Included by every kernel unit.  ScalarLaneSums is the reference form of
/// the sweep's lane sums: the scalar body's, and every path's for the lane
/// counts it does not vectorize.  The register templates are instantiated
/// only by the vector units, each with its own register type V (CVec2d,
/// CVec4d or CVec8d) holding W consecutive amplitudes, so every
/// instantiation is compiled for that unit's ISA alone.
///
/// The block is walked as flat elements e = i * L + t (L lanes), so an op
/// mask m of one lane's qubit space is element bit m * L.  A diagonal op
/// is then an apply_diag_run op on element masks: its factors are that
/// kernel's (simd_diag_run.hpp), each register takes them with cmul.  A
/// damp-and-scale takes two real factor registers: keep or 1 by its mask
/// bit (x * 1.0 is x, so a clear-bit element gets the one product a * s),
/// then the per-lane scales.
///
/// The ops form segments: an optional damp-and-scale, then a run of
/// diagonal ops (the lane batch's list is one segment, as a damp-and-scale
/// only ever starts it).  The sweep walks the block in L1-sized pieces and
/// each piece takes every segment in chunks of at most four ops, NR
/// registers at a time (NR * W >= L, so every register of a group keeps
/// its lanes), with each chunk's masks and factors in locals.  For a pass
/// with sums, the last chunk hands each group, still in registers, to the
/// path's chains functor, so the next groups' ops overlap the sums' add
/// chains; ScalarLaneSums reads the piece back from L1 instead.

#include <algorithm>
#include <complex>
#include <cstdint>

#include "math/simd.hpp"
#include "math/simd_diag_run.hpp"
#include "util/parallel.hpp"

namespace charter::math::simd {

/// The lane sums of L lanes over rows [lo, hi) of the block \p a, in
/// ascending order: per lane, p1 over the rows with bit(i & mask) set and
/// the no-jump norm over all of them, each a left-to-right chain of
/// std::norm (re*re + im*im).  Its chains are locals while it loops, so no
/// store to the block can force them through memory.
template <int L>
struct ScalarLaneSums {
  static constexpr bool kFused = false;
  double keep;
  double s1[L] = {}, sn[L] = {};

  explicit ScalarLaneSums(double k) : keep(k) {}

  void rows(const cplx* a, std::uint64_t lo, std::uint64_t hi,
            std::uint64_t mask) {
    double c1[L], cn[L];
    for (int t = 0; t < L; ++t) {
      c1[t] = s1[t];
      cn[t] = sn[t];
    }
    for (std::uint64_t i = lo; i < hi; ++i) {
      const cplx* row = a + i * L;
      if (i & mask) {
        for (int t = 0; t < L; ++t) {
          c1[t] += std::norm(row[t]);
          cn[t] += std::norm(row[t] * keep);
        }
      } else {
        for (int t = 0; t < L; ++t) cn[t] += std::norm(row[t]);
      }
    }
    for (int t = 0; t < L; ++t) {
      s1[t] = c1[t];
      sn[t] = cn[t];
    }
  }

  void take(double* p1, double* norm) const {
    for (int t = 0; t < L; ++t) {
      p1[t] = s1[t];
      norm[t] = sn[t];
    }
  }
};

/// One sweep's ops for register type V of W amplitudes, as segments.
template <typename V, int W>
struct LaneSweepFactors {
  struct Segment {
    const LaneOp* damp;  ///< the damp-and-scale, or nullptr
    int first;           ///< first op of its diagonal run in `diag`
    int len;             ///< diagonal op count (may be 0)
  };
  Segment seg[kMaxLaneOps];  ///< at least one, maybe empty
  int num_segments = 0;
  DiagOp shifted[kMaxLaneOps];  ///< the diagonal ops on element masks
  DiagRunFactors<V, W> diag;

  LaneSweepFactors(const LaneOp* ops, int k, int lanes)
      : diag(shifted, collect(ops, k, lanes)) {
    int nd = 0;
    for (int j = 0; j < k; ++j) {
      if (ops[j].damp) {
        seg[num_segments++] = {&ops[j], nd, 0};
        continue;
      }
      if (num_segments == 0) seg[num_segments++] = {nullptr, nd, 0};
      ++seg[num_segments - 1].len;
      ++nd;
    }
    if (num_segments == 0) seg[num_segments++] = {nullptr, 0, 0};
  }

  /// Fills `shifted` with the diagonal ops, masks times \p lanes, and
  /// returns their count.
  int collect(const LaneOp* ops, int k, int lanes) {
    int nd = 0;
    for (int j = 0; j < k; ++j)
      if (!ops[j].damp) {
        shifted[nd] = ops[j].diag;
        shifted[nd].amask *= static_cast<std::uint64_t>(lanes);
        shifted[nd].bmask *= static_cast<std::uint64_t>(lanes);
        ++nd;
      }
    return nd;
  }
};

static_assert(kMaxLaneOps <= kMaxDiagRun, "a sweep's diagonal ops fit one run");

/// One chunk over the elements [lo, hi) of a piece, NR registers at a time:
/// the damp-and-scale \p damp first (nullptr: none), then the K diagonal
/// ops from \p j; when Fused, each group then goes to \p chains.  The masks and
/// factors are copied into locals first: the vector stores may alias any
/// memory, so values read through \p r would be reloaded after every
/// store.  \p lo is a multiple of NR * W, so a register's offset g * W in
/// its group sets only element bits below NR * W.
template <int K, bool Fused, int NR, typename V, int W, typename Chains>
void lane_chunk(cplx* a, std::uint64_t lo, std::uint64_t hi,
                const LaneSweepFactors<V, W>& r, const LaneOp* damp, int j,
                std::uint64_t lanes, std::uint64_t sums_mask,
                Chains* chains) {
  // The damp-and-scale's registers: register g of a group takes keep or 1
  // from kf[0][g] or, when the group base has element bit km set, kf[1][g]
  // (a km below NR * W is never set in a base: kf[1] = kf[0]), then its
  // lanes' scales sc[g].
  const std::uint64_t km = damp != nullptr ? damp->mask * lanes : 0;
  const std::uint64_t khi = km >= NR * W ? km : 0;
  V kf[2][NR]{}, sc[NR]{};
  if (damp != nullptr)
    for (int g = 0; g < NR; ++g)
      for (unsigned h = 0; h < 2; ++h) {
        cplx kv[W], sv[W];
        for (int w = 0; w < W; ++w) {
          const std::uint64_t e = (h ? khi : 0) | static_cast<std::uint64_t>(
                                                      g * W + w);
          const double f = (e & km) ? damp->keep : 1.0;
          kv[w] = cplx(f, f);
          const double t = damp->scale[static_cast<std::uint64_t>(g * W + w) &
                                       (lanes - 1)];
          sv[w] = cplx(t, t);
        }
        kf[h][g] = V::load(kv);
        sc[g] = V::load(sv);
      }
  std::uint64_t ma[K > 0 ? K : 1], mb[K > 0 ? K : 1];
  unsigned off[K > 0 ? K : 1][NR];
  const CSplit<V>* f[K > 0 ? K : 1];
  for (int c = 0; c < K; ++c) {
    ma[c] = r.diag.hi_a[j + c];
    mb[c] = r.diag.hi_b[j + c];
    f[c] = r.diag.f[j + c];
    for (int g = 0; g < NR; ++g) {
      const std::uint64_t og = static_cast<std::uint64_t>(g * W);
      off[c][g] = ((og & ma[c]) ? 1u : 0u) | ((og & mb[c]) ? 2u : 0u);
    }
  }
  Chains ch = Fused ? *chains : Chains(0.0);  // a local no store can alias
  // The group's first row: NR * W >= lanes elements, so whole rows.
  std::uint64_t row = lo / lanes;
  const std::uint64_t rows = NR * W / lanes;
  for (std::uint64_t e = lo; e < hi; e += NR * W, row += rows) {
    V x[NR];
    for (int g = 0; g < NR; ++g) x[g] = V::load(a + e + g * W);
    if (damp != nullptr) {
      const V* k = kf[(e & khi) ? 1 : 0];
      for (int g = 0; g < NR; ++g) x[g] = x[g].rmul(k[g]).rmul(sc[g]);
    }
    for (int c = 0; c < K; ++c) {
      const unsigned h = ((e & ma[c]) ? 1u : 0u) | ((e & mb[c]) ? 2u : 0u);
      for (int g = 0; g < NR; ++g) x[g] = cmul(x[g], f[c][h | off[c][g]]);
    }
    if (damp != nullptr || K > 0)
      for (int g = 0; g < NR; ++g) x[g].store(a + e + g * W);
    if constexpr (Fused) ch(x, row, sums_mask);
  }
  if constexpr (Fused) *chains = ch;
}

/// lane_chunk with K = \p k (0..4) picked at run time.
template <bool Fused, int NR, typename V, int W, typename Chains>
void lane_chunk_k(int k, cplx* a, std::uint64_t lo, std::uint64_t hi,
                  const LaneSweepFactors<V, W>& r, const LaneOp* damp, int j,
                  std::uint64_t lanes, std::uint64_t sums_mask,
                  Chains* chains) {
  switch (k) {
    case 0:
      return lane_chunk<0, Fused, NR>(a, lo, hi, r, damp, j, lanes, sums_mask,
                                      chains);
    case 1:
      return lane_chunk<1, Fused, NR>(a, lo, hi, r, damp, j, lanes, sums_mask,
                                      chains);
    case 2:
      return lane_chunk<2, Fused, NR>(a, lo, hi, r, damp, j, lanes, sums_mask,
                                      chains);
    case 3:
      return lane_chunk<3, Fused, NR>(a, lo, hi, r, damp, j, lanes, sums_mask,
                                      chains);
    default:
      return lane_chunk<4, Fused, NR>(a, lo, hi, r, damp, j, lanes, sums_mask,
                                      chains);
  }
}

/// Every segment on the piece [lo, hi) in chunks of at most four ops, the
/// segment's damp-and-scale with its first chunk; with \p chains, the sums
/// over the piece's rows after its last op.
template <int NR, typename V, int W, typename Chains>
void lane_piece(cplx* a, std::uint64_t lo, std::uint64_t hi,
                const LaneSweepFactors<V, W>& r, std::uint64_t lanes,
                std::uint64_t sums_mask, Chains* chains) {
  const int last = r.num_segments - 1;
  for (int s = 0; s <= last; ++s) {
    const LaneOp* damp = r.seg[s].damp;
    int j = r.seg[s].first, left = r.seg[s].len;
    do {
      const int k = std::min(left, 4);
      bool fused = false;
      if constexpr (Chains::kFused)
        if (chains != nullptr && s == last && left <= 4) {
          lane_chunk_k<true, NR>(k, a, lo, hi, r, damp, j, lanes, sums_mask,
                                 chains);
          fused = true;
        }
      if (!fused && (damp != nullptr || k > 0))
        lane_chunk_k<false, NR>(k, a, lo, hi, r, damp, j, lanes, sums_mask,
                                chains);
      damp = nullptr;
      j += k;
      left -= k;
    } while (left > 0);
  }
  if constexpr (!Chains::kFused)
    if (chains != nullptr) chains->rows(a, lo / lanes, hi / lanes, sums_mask);
}

/// Registers per piece: 256 registers (16 KiB on AVX-512) stay in L1 from
/// one chunk to the next, and a piece's chunk set-up is paid once per 256
/// registers (16 cost 1.15-1.3x the time of 256 on the sweeps of
/// bench_sim_kernels' lane_sweep rows).
constexpr int kLaneSweepBlockRegs = 256;

/// KernelTable::lane_sweep on register type V, NR registers a step, with
/// the chains functor Chains, over a block of dim * lanes >= NR * W
/// elements.  With sums_mask 0 it only applies the ops, piece by piece,
/// fanning out at apply_diag_run's grain in amplitudes; otherwise it is
/// serial.
template <int NR, typename V, int W, typename Chains>
void lane_sweep_body(cplx* a, std::uint64_t dim, int lanes, const LaneOp* ops,
                     int k, std::uint64_t sums_mask, double keep, double* p1,
                     double* norm) {
  const LaneSweepFactors<V, W> r(ops, k, lanes);
  const std::uint64_t l = static_cast<std::uint64_t>(lanes);
  const std::uint64_t n = dim * l;
  const std::uint64_t piece =
      std::min<std::uint64_t>(n, std::max(kLaneSweepBlockRegs, NR) * W);
  if (sums_mask == 0) {
    if (k == 0) return;
    util::parallel_for(
        static_cast<std::int64_t>(n / piece),
        [&](std::int64_t p) {
          const std::uint64_t lo = static_cast<std::uint64_t>(p) * piece;
          lane_piece<NR>(a, lo, lo + piece, r, l, 0,
                         static_cast<Chains*>(nullptr));
        },
        /*grain=*/1024 / kLaneSweepBlockRegs);
    return;
  }
  Chains sums(keep);
  for (std::uint64_t lo = 0; lo < n; lo += piece)
    lane_piece<NR>(a, lo, lo + piece, r, l, sums_mask, &sums);
  sums.take(p1, norm);
}

}  // namespace charter::math::simd
