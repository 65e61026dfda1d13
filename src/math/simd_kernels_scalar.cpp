// Scalar kernel path: the historical std::complex loops, moved here
// verbatim from sim/kernels.hpp and sim/density_matrix.cpp.  This path is
// the bit-identity anchor of the SIMD layer — tests/test_simd.cpp replays
// reference copies of these loops against it and asserts exact equality,
// and the golden report fixtures were produced by (and replay on) this
// arithmetic.  Do not "optimize" these bodies; change the vector paths
// instead.  (The vec(rho) diagonal kernel walks columns instead of flat
// indices, but every element still sees the historical two multiplies in
// their historical order.)

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "math/simd.hpp"
#include "math/simd_lane_sweep.hpp"
#include "util/parallel.hpp"

namespace charter::math::simd {

namespace {

void k_apply_1q(cplx* a, std::uint64_t dim, int q, const Mat2& u) {
  const std::uint64_t stride = 1ULL << q;
  const cplx u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  const std::int64_t npairs = static_cast<std::int64_t>(dim >> 1);
  util::parallel_for(npairs, [=](std::int64_t p) {
    // Index of the p-th pair: insert a 0 bit at position q.
    const std::uint64_t up = static_cast<std::uint64_t>(p);
    const std::uint64_t i0 = ((up & ~(stride - 1)) << 1) | (up & (stride - 1));
    const std::uint64_t i1 = i0 | stride;
    const cplx a0 = a[i0];
    const cplx a1 = a[i1];
    a[i0] = u00 * a0 + u01 * a1;
    a[i1] = u10 * a0 + u11 * a1;
  });
}

void k_apply_diag_1q(cplx* a, std::uint64_t dim, int q, cplx d0, cplx d1) {
  const std::uint64_t mask = 1ULL << q;
  util::parallel_for(static_cast<std::int64_t>(dim), [=](std::int64_t i) {
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    a[ui] *= (ui & mask) ? d1 : d0;
  });
}

void k_apply_x(cplx* a, std::uint64_t dim, int q) {
  const std::uint64_t stride = 1ULL << q;
  const std::int64_t npairs = static_cast<std::int64_t>(dim >> 1);
  util::parallel_for(npairs, [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p);
    const std::uint64_t i0 = ((up & ~(stride - 1)) << 1) | (up & (stride - 1));
    std::swap(a[i0], a[i0 | stride]);
  });
}

void k_apply_cx(cplx* a, std::uint64_t dim, int c, int t) {
  const std::uint64_t cmask = 1ULL << c;
  const std::uint64_t tmask = 1ULL << t;
  util::parallel_for(static_cast<std::int64_t>(dim >> 1), [=](std::int64_t i) {
    // Enumerate indices with target bit = 0 by inserting a 0 at position t.
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    const std::uint64_t i0 = ((ui & ~(tmask - 1)) << 1) | (ui & (tmask - 1));
    if (i0 & cmask) std::swap(a[i0], a[i0 | tmask]);
  });
}

void k_apply_diag_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                     const std::array<cplx, 4>& d) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  util::parallel_for(static_cast<std::int64_t>(dim), [=](std::int64_t i) {
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    const unsigned idx = ((ui & amask) ? 1u : 0u) | ((ui & bmask) ? 2u : 0u);
    a[ui] *= d[idx];
  });
}

void k_apply_diag_run(cplx* a, std::uint64_t dim, const DiagOp* ops, int k) {
  // A lone op runs faster through its own kernel, with the same bytes.
  const int qa = std::countr_zero(ops[0].amask);
  if (k == 1 && ops[0].bmask == 0)
    return k_apply_diag_1q(a, dim, qa, ops[0].d[0], ops[0].d[1]);
  if (k == 1)
    return k_apply_diag_2q(a, dim, qa, std::countr_zero(ops[0].bmask),
                           ops[0].d);
  util::parallel_for(static_cast<std::int64_t>(dim), [=](std::int64_t i) {
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    cplx v = a[ui];
    for (int j = 0; j < k; ++j) {
      const DiagOp& op = ops[j];
      v *= op.d[((ui & op.amask) ? 1u : 0u) | ((ui & op.bmask) ? 2u : 0u)];
    }
    a[ui] = v;
  });
}

void k_apply_2q(cplx* a, std::uint64_t dim, int qa, int qb, const Mat4& u) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  util::parallel_for(
      static_cast<std::int64_t>(dim >> 2), [=, &u](std::int64_t i) {
        // Insert 0 bits at both qubit positions (lo first, then hi).
        std::uint64_t base = static_cast<std::uint64_t>(i);
        base = ((base & ~(lo - 1)) << 1) | (base & (lo - 1));
        base = ((base & ~(hi - 1)) << 1) | (base & (hi - 1));
        const std::uint64_t idx[4] = {base, base | amask, base | bmask,
                                      base | amask | bmask};
        cplx in[4];
        for (int k = 0; k < 4; ++k) in[k] = a[idx[k]];
        for (int r = 0; r < 4; ++r) {
          cplx acc = 0.0;
          for (int k = 0; k < 4; ++k) acc += u(r, k) * in[k];
          a[idx[r]] = acc;
        }
      });
}

void k_apply_1q_pair(cplx* a, std::uint64_t dim, int qa, const Mat2& ua,
                     int qb, const Mat2& ub) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  const cplx a00 = ua(0, 0), a01 = ua(0, 1), a10 = ua(1, 0), a11 = ua(1, 1);
  const cplx b00 = ub(0, 0), b01 = ub(0, 1), b10 = ub(1, 0), b11 = ub(1, 1);
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
    std::uint64_t base = static_cast<std::uint64_t>(i);
    base = ((base & ~(lo - 1)) << 1) | (base & (lo - 1));
    base = ((base & ~(hi - 1)) << 1) | (base & (hi - 1));
    const std::uint64_t i00 = base;
    const std::uint64_t i10 = base | amask;  // qa bit set
    const std::uint64_t i01 = base | bmask;  // qb bit set
    const std::uint64_t i11 = base | amask | bmask;
    // First update: ua on the qa-pairs.
    const cplx v00 = a[i00], v10 = a[i10], v01 = a[i01], v11 = a[i11];
    const cplx t00 = a00 * v00 + a01 * v10;
    const cplx t10 = a10 * v00 + a11 * v10;
    const cplx t01 = a00 * v01 + a01 * v11;
    const cplx t11 = a10 * v01 + a11 * v11;
    // Second update: ub on the qb-pairs of the intermediate values.
    a[i00] = b00 * t00 + b01 * t01;
    a[i01] = b10 * t00 + b11 * t01;
    a[i10] = b00 * t10 + b01 * t11;
    a[i11] = b10 * t10 + b11 * t11;
  });
}

void k_apply_diag_rowcol(cplx* a, int n, const cplx* row, const cplx* col) {
  // Column c is the contiguous segment a[c << n, (c + 1) << n); its entry r
  // is rho_{rc}.  Row factor first, then column factor — the order of the
  // historical diagonal pair loop (and of two apply_diag passes).
  const std::uint64_t len = 1ULL << n;
  util::parallel_for(
      static_cast<std::int64_t>(len),
      [=](std::int64_t c) {
        cplx* seg = a + (static_cast<std::uint64_t>(c) << n);
        const cplx f = col[c];
        for (std::uint64_t r = 0; r < len; ++r) {
          cplx v = seg[r];
          v *= row[r];
          v *= f;
          seg[r] = v;
        }
      },
      /*grain=*/32);
}

void k_apply_cx_pair(cplx* a, std::uint64_t dim, int c1, int t1, int c2,
                     int t2) {
  const std::uint64_t c1m = 1ULL << c1;
  const std::uint64_t t1m = 1ULL << t1;
  const std::uint64_t c2m = 1ULL << c2;
  const std::uint64_t t2m = 1ULL << t2;
  const std::uint64_t lo = t1m < t2m ? t1m : t2m;
  const std::uint64_t hi = t1m < t2m ? t2m : t1m;
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
    std::uint64_t base = static_cast<std::uint64_t>(i);
    base = ((base & ~(lo - 1)) << 1) | (base & (lo - 1));
    base = ((base & ~(hi - 1)) << 1) | (base & (hi - 1));
    // The control bits are outside {t1, t2}, so they are constant across
    // the 4-element group and each swap decision is group-wide.
    if (base & c1m) {
      std::swap(a[base], a[base | t1m]);
      std::swap(a[base | t2m], a[base | t1m | t2m]);
    }
    if (base & c2m) {
      std::swap(a[base], a[base | t2m]);
      std::swap(a[base | t1m], a[base | t1m | t2m]);
    }
  });
}

void k_thermal_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double gamma, double keep) {
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i), row);
    base = insert_zero_bit(base, col);
    const std::uint64_t i00 = base;
    const std::uint64_t i10 = base | row;        // rho_{1,0}
    const std::uint64_t i01 = base | col;        // rho_{0,1}
    const std::uint64_t i11 = base | row | col;  // rho_{1,1}
    a[i00] += gamma * a[i11];
    a[i11] *= (1.0 - gamma);
    a[i01] *= keep;
    a[i10] *= keep;
  });
}

void k_depol1q_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double mix, double coh) {
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i), row);
    base = insert_zero_bit(base, col);
    const std::uint64_t i00 = base;
    const std::uint64_t i10 = base | row;
    const std::uint64_t i01 = base | col;
    const std::uint64_t i11 = base | row | col;
    const cplx d0 = a[i00], d1 = a[i11];
    a[i00] = (1.0 - mix) * d0 + mix * d1;
    a[i11] = (1.0 - mix) * d1 + mix * d0;
    a[i01] *= coh;
    a[i10] *= coh;
  });
}

void k_bitflip_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double p) {
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i), row);
    base = insert_zero_bit(base, col);
    const std::uint64_t i00 = base;
    const std::uint64_t i10 = base | row;
    const std::uint64_t i01 = base | col;
    const std::uint64_t i11 = base | row | col;
    const cplx b00 = a[i00], b01 = a[i01], b10 = a[i10], b11 = a[i11];
    a[i00] = (1.0 - p) * b00 + p * b11;
    a[i11] = (1.0 - p) * b11 + p * b00;
    a[i01] = (1.0 - p) * b01 + p * b10;
    a[i10] = (1.0 - p) * b10 + p * b01;
  });
}

void k_depol2q_block(cplx* a, std::uint64_t dim, std::uint64_t ra,
                     std::uint64_t rb, std::uint64_t ca, std::uint64_t cb,
                     double lambda) {
  // Sorted bit positions for zero-insertion.
  std::array<std::uint64_t, 4> masks = {ra, rb, ca, cb};
  std::sort(masks.begin(), masks.end());
  util::parallel_for(static_cast<std::int64_t>(dim >> 4), [=](std::int64_t i) {
    std::uint64_t base = static_cast<std::uint64_t>(i);
    for (const std::uint64_t m : masks) base = insert_zero_bit(base, m);
    std::uint64_t idx[4][4];
    for (unsigned r = 0; r < 4; ++r)
      for (unsigned c = 0; c < 4; ++c)
        idx[r][c] = base | ((r & 1u) ? ra : 0) | ((r & 2u) ? rb : 0) |
                    ((c & 1u) ? ca : 0) | ((c & 2u) ? cb : 0);
    const cplx avg =
        0.25 * (a[idx[0][0]] + a[idx[1][1]] + a[idx[2][2]] + a[idx[3][3]]);
    for (unsigned r = 0; r < 4; ++r)
      for (unsigned c = 0; c < 4; ++c) {
        if (r == c)
          a[idx[r][c]] = (1.0 - lambda) * a[idx[r][c]] + lambda * avg;
        else
          a[idx[r][c]] *= (1.0 - lambda);
      }
  });
}

void k_accum_add(cplx* acc, const cplx* src, std::uint64_t n) {
  util::parallel_for(static_cast<std::int64_t>(n),
                     [=](std::int64_t i) { acc[i] += src[i]; });
}

/// The damp-and-scale \p op on rows [lo, hi) of an L-lane block, its
/// fields copied into locals (the stores to the block may alias the op).
template <int L>
void lane_damp_rows(cplx* a, std::uint64_t lo, std::uint64_t hi,
                    const LaneOp& op) {
  const std::uint64_t mask = op.mask;
  const double keep = op.keep;
  double s[L];
  for (int t = 0; t < L; ++t) s[t] = op.scale[t];
  for (std::uint64_t i = lo; i < hi; ++i) {
    cplx* row = a + i * L;
    if (i & mask)
      for (int t = 0; t < L; ++t) row[t] = row[t] * keep * s[t];
    else
      for (int t = 0; t < L; ++t) row[t] *= s[t];
  }
}

/// The diagonal ops \p ops[0, k) on rows [lo, hi), each element taking
/// them in order.
template <int L>
void lane_diag_rows(cplx* a, std::uint64_t lo, std::uint64_t hi,
                    const LaneOp* ops, int k) {
  for (std::uint64_t i = lo; i < hi; ++i) {
    cplx* row = a + i * L;
    for (int t = 0; t < L; ++t) {
      cplx v = row[t];
      for (int j = 0; j < k; ++j) {
        const DiagOp& d = ops[j].diag;
        v *= d.d[((i & d.amask) ? 1u : 0u) | ((i & d.bmask) ? 2u : 0u)];
      }
      row[t] = v;
    }
  }
}

/// The lane sweep for a constant lane count L, in pieces of 64 rows: each
/// damp-and-scale and each run of diagonal ops in turn on the piece, then,
/// with sums, the piece's rows to the sums while they are in L1.  The ops
/// are element-local, so every element still takes them in order.
template <int L>
void lane_sweep_l(cplx* a, std::uint64_t dim, const LaneOp* ops, int k,
                  std::uint64_t sums_mask, double keep, double* p1,
                  double* norm) {
  constexpr std::uint64_t kPiece = 64;
  const auto piece = [=](std::uint64_t lo) {
    const std::uint64_t hi = std::min(dim, lo + kPiece);
    for (int j = 0; j < k;) {
      if (ops[j].damp) {
        lane_damp_rows<L>(a, lo, hi, ops[j++]);
        continue;
      }
      int run = 1;
      while (j + run < k && !ops[j + run].damp) ++run;
      lane_diag_rows<L>(a, lo, hi, ops + j, run);
      j += run;
    }
    return hi;
  };
  if (sums_mask == 0) {
    if (k > 0)
      util::parallel_for(
          static_cast<std::int64_t>((dim + kPiece - 1) / kPiece),
          [=](std::int64_t p) { piece(static_cast<std::uint64_t>(p) * kPiece); },
          /*grain=*/16);
    return;
  }
  ScalarLaneSums<L> sums(keep);
  for (std::uint64_t lo = 0; lo < dim; lo += kPiece)
    sums.rows(a, lo, piece(lo), sums_mask);
  sums.take(p1, norm);
}

void k_lane_sweep(cplx* a, std::uint64_t dim, int lanes, const LaneOp* ops,
                  int k, std::uint64_t sums_mask, double keep, double* p1,
                  double* norm) {
  if (lanes == 4)
    return lane_sweep_l<4>(a, dim, ops, k, sums_mask, keep, p1, norm);
  if (lanes == 2)
    return lane_sweep_l<2>(a, dim, ops, k, sums_mask, keep, p1, norm);
  lane_sweep_l<1>(a, dim, ops, k, sums_mask, keep, p1, norm);
}

constexpr KernelTable kScalarTable = {
    .name = "scalar",
    .apply_1q = k_apply_1q,
    .apply_diag_1q = k_apply_diag_1q,
    .apply_x = k_apply_x,
    .apply_cx = k_apply_cx,
    .apply_diag_2q = k_apply_diag_2q,
    .apply_2q = k_apply_2q,
    .apply_diag_run = k_apply_diag_run,
    .apply_1q_pair = k_apply_1q_pair,
    .apply_cx_pair = k_apply_cx_pair,
    .apply_diag_rowcol = k_apply_diag_rowcol,
    .thermal_block = k_thermal_block,
    .depol1q_block = k_depol1q_block,
    .bitflip_block = k_bitflip_block,
    .depol2q_block = k_depol2q_block,
    .accum_add = k_accum_add,
    .lane_sweep = k_lane_sweep,
};

}  // namespace

const KernelTable* table_scalar() { return &kScalarTable; }

}  // namespace charter::math::simd
