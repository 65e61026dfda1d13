// Width-4 kernel path: two complex doubles per 256-bit AVX2 register,
// complex products via the fmaddsub recipe.  This translation unit is
// compiled with -mavx2 -mfma (see CMakeLists.txt) and only ever entered
// after the dispatcher's runtime CPUID check, so the rest of the binary
// stays baseline-ISA clean.
//
// Iteration strategy: the group enumerations of the scalar kernels walk
// contiguous runs whenever every relevant bit mask is >= 2, so those
// configurations process two groups (one cache-line-friendly 256-bit load
// per stream) per iteration.  Configurations touching bit 0 keep both
// elements of a pair inside one register and use cross-lane shuffles
// instead; the CX pair and the two-qubit depolarizing block do the same
// with lane swaps, blends and 128-bit diagonal updates.  Plain CX falls back
// to the scalar loop on a bit-0 operand — a pure permutation, so every path
// is bit-exact for it.
//
// Each output element is computed by a fixed operation sequence, so results
// are deterministic per path and across thread counts; FMA contraction is
// what separates this path from scalar (<= 1e-12, tests/test_simd.cpp).

#include <algorithm>
#include <array>
#include <utility>

#include "math/simd.hpp"
#include "math/simd_diag_run.hpp"
#include "math/simd_lane_sweep.hpp"
#include "util/parallel.hpp"

#if defined(CHARTER_SIMD_HAS_AVX2)

namespace charter::math::simd {

namespace {

void k_apply_1q(cplx* a, std::uint64_t dim, int q, const Mat2& u) {
  const std::uint64_t stride = 1ULL << q;
  if (stride == 1) {
    // Both pair members share one register: [a0, a1].
    const CVec4d col0 = CVec4d::set(u(0, 0), u(1, 0));
    const CVec4d col1 = CVec4d::set(u(0, 1), u(1, 1));
    util::parallel_for(static_cast<std::int64_t>(dim >> 1),
                       [=](std::int64_t p) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(p) << 1);
                         const CVec4d x = CVec4d::load(ptr);
                         cfma(cmul(x.dup_lo(), col0), x.dup_hi(), col1)
                             .store(ptr);
                       });
    return;
  }
  // stride >= 2: consecutive pairs are contiguous; two pairs per iteration.
  const CVec4d u00 = CVec4d::bcast(u(0, 0)), u01 = CVec4d::bcast(u(0, 1));
  const CVec4d u10 = CVec4d::bcast(u(1, 0)), u11 = CVec4d::bcast(u(1, 1));
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p) << 1;
    const std::uint64_t i0 = insert_zero_bit(up, stride);
    const CVec4d x0 = CVec4d::load(a + i0);
    const CVec4d x1 = CVec4d::load(a + (i0 | stride));
    cfma(cmul(x0, u00), x1, u01).store(a + i0);
    cfma(cmul(x0, u10), x1, u11).store(a + (i0 | stride));
  });
}

void k_apply_diag_1q(cplx* a, std::uint64_t dim, int q, cplx d0, cplx d1) {
  const std::uint64_t mask = 1ULL << q;
  if (mask == 1) {
    const CVec4d d = CVec4d::set(d0, d1);
    util::parallel_for(static_cast<std::int64_t>(dim >> 1),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 1);
                         cmul(CVec4d::load(ptr), d).store(ptr);
                       });
    return;
  }
  const CVec4d v0 = CVec4d::bcast(d0), v1 = CVec4d::bcast(d1);
  util::parallel_for(static_cast<std::int64_t>(dim >> 1), [=](std::int64_t k) {
    const std::uint64_t i = static_cast<std::uint64_t>(k) << 1;
    cmul(CVec4d::load(a + i), (i & mask) ? v1 : v0).store(a + i);
  });
}

void k_apply_x(cplx* a, std::uint64_t dim, int q) {
  const std::uint64_t stride = 1ULL << q;
  if (stride == 1) {
    util::parallel_for(static_cast<std::int64_t>(dim >> 1),
                       [=](std::int64_t p) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(p) << 1);
                         CVec4d::load(ptr).swap_lanes().store(ptr);
                       });
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p) << 1;
    const std::uint64_t i0 = insert_zero_bit(up, stride);
    const CVec4d x0 = CVec4d::load(a + i0);
    const CVec4d x1 = CVec4d::load(a + (i0 | stride));
    x1.store(a + i0);
    x0.store(a + (i0 | stride));
  });
}

void k_apply_cx(cplx* a, std::uint64_t dim, int c, int t) {
  const std::uint64_t cmask = 1ULL << c;
  const std::uint64_t tmask = 1ULL << t;
  if (cmask == 1 || tmask == 1) {
    // Bit-0 operand: pairs are not register-aligned.  Pure permutation, so
    // the scalar loop is both exact and cheap.
    table_scalar()->apply_cx(a, dim, c, t);
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p) << 1;
    const std::uint64_t i0 = insert_zero_bit(up, tmask);
    if (!(i0 & cmask)) return;
    const CVec4d x0 = CVec4d::load(a + i0);
    const CVec4d x1 = CVec4d::load(a + (i0 | tmask));
    x1.store(a + i0);
    x0.store(a + (i0 | tmask));
  });
}

void k_apply_diag_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                     const std::array<cplx, 4>& d) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  if (amask >= 2 && bmask >= 2) {
    const std::array<CVec4d, 4> db = {CVec4d::bcast(d[0]), CVec4d::bcast(d[1]),
                                      CVec4d::bcast(d[2]),
                                      CVec4d::bcast(d[3])};
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 1), [=](std::int64_t k) {
          const std::uint64_t i = static_cast<std::uint64_t>(k) << 1;
          const unsigned idx =
              ((i & amask) ? 1u : 0u) | ((i & bmask) ? 2u : 0u);
          cmul(CVec4d::load(a + i), db[idx]).store(a + i);
        });
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 1), [=](std::int64_t k) {
    const std::uint64_t i = static_cast<std::uint64_t>(k) << 1;
    const unsigned lo = ((i & amask) ? 1u : 0u) | ((i & bmask) ? 2u : 0u);
    const unsigned hi =
        (((i + 1) & amask) ? 1u : 0u) | (((i + 1) & bmask) ? 2u : 0u);
    cmul(CVec4d::load(a + i), CVec4d::set(d[lo], d[hi])).store(a + i);
  });
}

void k_apply_diag_run(cplx* a, std::uint64_t dim, const DiagOp* ops, int k) {
  diag_run<CVec4d, 2>(a, dim, ops, k);
}

void k_apply_2q(cplx* a, std::uint64_t dim, int qa, int qb, const Mat4& u) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  if (lo == 1) {
    // A bit-0 operand splits every 4-amplitude group across register lanes;
    // the dense 4x4 matvec would spend more shuffles than math.  Scalar is
    // exact and this configuration is 1/n of fused-tape gates.
    table_scalar()->apply_2q(a, dim, qa, qb, u);
    return;
  }
  // lo >= 2: group bases come in contiguous pairs; two groups per iteration,
  // one 256-bit load per input stream.
  std::array<CVec4d, 16> um;
  for (int r = 0; r < 4; ++r)
    for (int k = 0; k < 4; ++k)
      um[static_cast<std::size_t>(r * 4 + k)] = CVec4d::bcast(u(r, k));
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i) << 1,
                                         lo);
    base = insert_zero_bit(base, hi);
    const std::uint64_t idx[4] = {base, base | amask, base | bmask,
                                  base | amask | bmask};
    CVec4d in[4];
    for (int k = 0; k < 4; ++k) in[k] = CVec4d::load(a + idx[k]);
    for (int r = 0; r < 4; ++r) {
      CVec4d acc = cmul(in[0], um[static_cast<std::size_t>(r * 4)]);
      for (int k = 1; k < 4; ++k)
        acc = cfma(acc, in[k], um[static_cast<std::size_t>(r * 4 + k)]);
      acc.store(a + idx[r]);
    }
  });
}

void k_apply_1q_pair(cplx* a, std::uint64_t dim, int qa, const Mat2& ua,
                     int qb, const Mat2& ub) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  if (amask == 1) {
    // The qa-pairs sit inside one register; the qb update runs lane-wise
    // across the two registers of a group.
    const CVec4d acol0 = CVec4d::set(ua(0, 0), ua(1, 0));
    const CVec4d acol1 = CVec4d::set(ua(0, 1), ua(1, 1));
    const CVec4d b00 = CVec4d::bcast(ub(0, 0)), b01 = CVec4d::bcast(ub(0, 1));
    const CVec4d b10 = CVec4d::bcast(ub(1, 0)), b11 = CVec4d::bcast(ub(1, 1));
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
          const std::uint64_t base = insert_zero_bit(
              static_cast<std::uint64_t>(i) << 1, bmask);
          const CVec4d w0 = CVec4d::load(a + base);          // [v00, v10]
          const CVec4d w1 = CVec4d::load(a + (base | bmask));  // [v01, v11]
          const CVec4d t0 = cfma(cmul(w0.dup_lo(), acol0), w0.dup_hi(), acol1);
          const CVec4d t1 = cfma(cmul(w1.dup_lo(), acol0), w1.dup_hi(), acol1);
          cfma(cmul(t0, b00), t1, b01).store(a + base);
          cfma(cmul(t0, b10), t1, b11).store(a + (base | bmask));
        });
    return;
  }
  if (bmask == 1) {
    // Mirror case: the qb-pairs are register-internal, qa runs lane-wise.
    const CVec4d a00 = CVec4d::bcast(ua(0, 0)), a01 = CVec4d::bcast(ua(0, 1));
    const CVec4d a10 = CVec4d::bcast(ua(1, 0)), a11 = CVec4d::bcast(ua(1, 1));
    const CVec4d bcol0 = CVec4d::set(ub(0, 0), ub(1, 0));
    const CVec4d bcol1 = CVec4d::set(ub(0, 1), ub(1, 1));
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
          const std::uint64_t base = insert_zero_bit(
              static_cast<std::uint64_t>(i) << 1, amask);
          const CVec4d w0 = CVec4d::load(a + base);          // [v00, v01]
          const CVec4d w1 = CVec4d::load(a + (base | amask));  // [v10, v11]
          const CVec4d t0 = cfma(cmul(w0, a00), w1, a01);    // [t00, t01]
          const CVec4d t1 = cfma(cmul(w0, a10), w1, a11);    // [t10, t11]
          cfma(cmul(t0.dup_lo(), bcol0), t0.dup_hi(), bcol1).store(a + base);
          cfma(cmul(t1.dup_lo(), bcol0), t1.dup_hi(), bcol1)
              .store(a + (base | amask));
        });
    return;
  }
  // lo >= 2: group bases come in contiguous pairs; two groups per iteration.
  const CVec4d a00 = CVec4d::bcast(ua(0, 0)), a01 = CVec4d::bcast(ua(0, 1));
  const CVec4d a10 = CVec4d::bcast(ua(1, 0)), a11 = CVec4d::bcast(ua(1, 1));
  const CVec4d b00 = CVec4d::bcast(ub(0, 0)), b01 = CVec4d::bcast(ub(0, 1));
  const CVec4d b10 = CVec4d::bcast(ub(1, 0)), b11 = CVec4d::bcast(ub(1, 1));
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i) << 1,
                                         lo);
    base = insert_zero_bit(base, hi);
    const CVec4d v00 = CVec4d::load(a + base);
    const CVec4d v10 = CVec4d::load(a + (base | amask));
    const CVec4d v01 = CVec4d::load(a + (base | bmask));
    const CVec4d v11 = CVec4d::load(a + (base | amask | bmask));
    const CVec4d t00 = cfma(cmul(v00, a00), v10, a01);
    const CVec4d t10 = cfma(cmul(v00, a10), v10, a11);
    const CVec4d t01 = cfma(cmul(v01, a00), v11, a01);
    const CVec4d t11 = cfma(cmul(v01, a10), v11, a11);
    cfma(cmul(t00, b00), t01, b01).store(a + base);
    cfma(cmul(t00, b10), t01, b11).store(a + (base | bmask));
    cfma(cmul(t10, b00), t11, b01).store(a + (base | amask));
    cfma(cmul(t10, b10), t11, b11).store(a + (base | amask | bmask));
  });
}

void k_apply_diag_rowcol(cplx* a, int n, const cplx* row, const cplx* col) {
  // Column c is a contiguous 2^n-element segment (one register when n = 1),
  // so the inner loop is two contiguous loads and two complex multiplies
  // per register: row factor first, then the column factor broadcast once
  // per column.  Lane-wise this is the arithmetic of apply_diag_1q /
  // apply_diag_2q run on the row and then the column pseudo-qubits.
  const std::uint64_t len = 1ULL << n;
  util::parallel_for(
      static_cast<std::int64_t>(len),
      [=](std::int64_t c) {
        cplx* seg = a + (static_cast<std::uint64_t>(c) << n);
        const CVec4d f = CVec4d::bcast(col[c]);
        for (std::uint64_t r = 0; r < len; r += 2)
          cmul(cmul(CVec4d::load(seg + r), CVec4d::load(row + r)), f)
              .store(seg + r);
      },
      /*grain=*/32);
}

/// Lanes of the register holding groups (base, base|1) whose control bit
/// \p cm is set: both (3), lane 1 only when cm is bit 0 (2), or none (0).
inline int control_lanes(std::uint64_t base, std::uint64_t cm) {
  if (base & cm) return 3;
  return cm == 1 ? 2 : 0;
}

/// Exchanges the lanes of \p x and \p y selected by \p lanes (as above).
inline void exchange(CVec4d& x, CVec4d& y, int lanes) {
  if (lanes == 3) {
    std::swap(x, y);
  } else if (lanes == 2) {
    const __m256d nx = _mm256_blend_pd(x.v, y.v, 0xC);
    y = {_mm256_blend_pd(y.v, x.v, 0xC)};
    x = {nx};
  }
}

void k_apply_cx_pair(cplx* a, std::uint64_t dim, int c1, int t1, int c2,
                     int t2) {
  const std::uint64_t c1m = 1ULL << c1;
  const std::uint64_t t1m = 1ULL << t1;
  const std::uint64_t c2m = 1ULL << c2;
  const std::uint64_t t2m = 1ULL << t2;
  if (t1m == 1 || t2m == 1) {
    // A bit-0 target keeps each of its pairs inside one register; the other
    // target's pairs run across the registers at base and base|hi.  The
    // controls are not bit 0, so each swap decision covers the register.
    const std::uint64_t hi = t1m == 1 ? t2m : t1m;
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
          const std::uint64_t base =
              insert_zero_bit(static_cast<std::uint64_t>(i) << 1, hi);
          if (!(base & (c1m | c2m))) return;
          CVec4d v0 = CVec4d::load(a + base);
          CVec4d v1 = CVec4d::load(a + (base | hi));
          // The two CX in order: first (c1, t1), then (c2, t2).
          const auto apply = [&](std::uint64_t cm, std::uint64_t tm) {
            if (!(base & cm)) return;
            if (tm == 1) {
              v0 = v0.swap_lanes();
              v1 = v1.swap_lanes();
            } else {
              std::swap(v0, v1);
            }
          };
          apply(c1m, t1m);
          apply(c2m, t2m);
          v0.store(a + base);
          v1.store(a + (base | hi));
        });
    return;
  }
  // Both targets >= 2: two groups (base, base|1) per register; a control on
  // bit 0 selects lane 1.
  const std::uint64_t lo = t1m < t2m ? t1m : t2m;
  const std::uint64_t hi = t1m < t2m ? t2m : t1m;
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i) << 1,
                                         lo);
    base = insert_zero_bit(base, hi);
    const int m1 = control_lanes(base, c1m);
    const int m2 = control_lanes(base, c2m);
    if ((m1 | m2) == 0) return;
    CVec4d v0 = CVec4d::load(a + base);
    CVec4d v1 = CVec4d::load(a + (base | t1m));
    CVec4d v2 = CVec4d::load(a + (base | t2m));
    CVec4d v3 = CVec4d::load(a + (base | t1m | t2m));
    exchange(v0, v1, m1);
    exchange(v2, v3, m1);
    exchange(v0, v2, m2);
    exchange(v1, v3, m2);
    v0.store(a + base);
    v1.store(a + (base | t1m));
    v2.store(a + (base | t2m));
    v3.store(a + (base | t1m | t2m));
  });
}

/// Shared shuffle scheme for the channel blocks when one group bit is bit 0:
/// v0 = [x(base), x(base|lo)], v1 = [x(base|hi), x(base|hi|lo)] give the
/// diagonal pair as concat_lo_hi and the (role-symmetric) coherence pair as
/// concat_hi_lo; Process recombines and stores.
template <typename Process>
void channel_block_lane(cplx* a, std::uint64_t dim, std::uint64_t hi,
                        Process&& process) {
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
    const std::uint64_t base =
        insert_zero_bit(static_cast<std::uint64_t>(i) << 1, hi);
    const CVec4d v0 = CVec4d::load(a + base);
    const CVec4d v1 = CVec4d::load(a + (base | hi));
    const CVec4d diag = concat_lo_hi(v0, v1);
    const CVec4d off = concat_hi_lo(v0, v1);
    CVec4d ndiag = diag, noff = off;
    process(ndiag, noff);
    concat_lo_lo(ndiag, noff).store(a + base);
    concat_hi_hi(noff, ndiag).store(a + (base | hi));
  });
}

void k_thermal_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double gamma, double keep) {
  const std::uint64_t lo = row < col ? row : col;
  const std::uint64_t hi = row < col ? col : row;
  if (lo == 1) {
    // Lane-dependent diagonal update: lane 0 (rho00) gains gamma*rho11,
    // lane 1 (rho11) is scaled by 1-gamma.
    const __m256d cdiag = _mm256_set_pd(1.0 - gamma, 1.0 - gamma, 1.0, 1.0);
    const __m256d cswap = _mm256_set_pd(0.0, 0.0, gamma, gamma);
    channel_block_lane(a, dim, hi, [=](CVec4d& diag, CVec4d& off) {
      diag = {_mm256_fmadd_pd(diag.swap_lanes().v, cswap,
                              _mm256_mul_pd(diag.v, cdiag))};
      off = off.rscale(keep);
    });
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i) << 1,
                                         lo);
    base = insert_zero_bit(base, hi);
    const CVec4d v11 = CVec4d::load(a + (base | row | col));
    CVec4d v00 = CVec4d::load(a + base);
    v00 = {_mm256_fmadd_pd(v11.v, _mm256_set1_pd(gamma), v00.v)};
    v00.store(a + base);
    v11.rscale(1.0 - gamma).store(a + (base | row | col));
    CVec4d::load(a + (base | col)).rscale(keep).store(a + (base | col));
    CVec4d::load(a + (base | row)).rscale(keep).store(a + (base | row));
  });
}

void k_depol1q_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double mix, double coh) {
  const std::uint64_t lo = row < col ? row : col;
  const std::uint64_t hi = row < col ? col : row;
  if (lo == 1) {
    channel_block_lane(a, dim, hi, [=](CVec4d& diag, CVec4d& off) {
      diag = diag.rmix(1.0 - mix, diag.swap_lanes(), mix);
      off = off.rscale(coh);
    });
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i) << 1,
                                         lo);
    base = insert_zero_bit(base, hi);
    const CVec4d d0 = CVec4d::load(a + base);
    const CVec4d d1 = CVec4d::load(a + (base | row | col));
    d0.rmix(1.0 - mix, d1, mix).store(a + base);
    d1.rmix(1.0 - mix, d0, mix).store(a + (base | row | col));
    CVec4d::load(a + (base | col)).rscale(coh).store(a + (base | col));
    CVec4d::load(a + (base | row)).rscale(coh).store(a + (base | row));
  });
}

void k_bitflip_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double p) {
  const std::uint64_t lo = row < col ? row : col;
  const std::uint64_t hi = row < col ? col : row;
  if (lo == 1) {
    channel_block_lane(a, dim, hi, [=](CVec4d& diag, CVec4d& off) {
      diag = diag.rmix(1.0 - p, diag.swap_lanes(), p);
      off = off.rmix(1.0 - p, off.swap_lanes(), p);
    });
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i) << 1,
                                         lo);
    base = insert_zero_bit(base, hi);
    const CVec4d b00 = CVec4d::load(a + base);
    const CVec4d b01 = CVec4d::load(a + (base | col));
    const CVec4d b10 = CVec4d::load(a + (base | row));
    const CVec4d b11 = CVec4d::load(a + (base | row | col));
    b00.rmix(1.0 - p, b11, p).store(a + base);
    b11.rmix(1.0 - p, b00, p).store(a + (base | row | col));
    b01.rmix(1.0 - p, b10, p).store(a + (base | col));
    b10.rmix(1.0 - p, b01, p).store(a + (base | row));
  });
}

void k_depol2q_block(cplx* a, std::uint64_t dim, std::uint64_t ra,
                     std::uint64_t rb, std::uint64_t ca, std::uint64_t cb,
                     double lambda) {
  std::array<std::uint64_t, 4> masks = {ra, rb, ca, cb};
  std::sort(masks.begin(), masks.end());
  // Every path does the scalar loop's separate multiplies and adds (this
  // unit is built with -ffp-contract=off, so none of them fuses).
  const std::array<std::uint64_t, 16> off = depol2q_offsets(ra, rb, ca, cb);
  const __m256d keep = _mm256_set1_pd(1.0 - lambda);
  const __m256d w = _mm256_set1_pd(lambda);
  const __m256d quarter = _mm256_set1_pd(0.25);
  if (masks[0] == 1) {
    // A bit-0 mask pairs each entry with its bit-0 partner in one register,
    // so a group is eight registers at the offsets with bit 0 clear.  All
    // sixteen entries are scaled by 1-lambda at full width, then the four
    // diagonal entries are rewritten from their values loaded beforehand.
    std::array<std::uint64_t, 8> reg;
    std::size_t nreg = 0;
    for (const std::uint64_t o : off)
      if (!(o & 1)) reg[nreg++] = o;
    const __m128d keep1 = _mm256_castpd256_pd128(keep);
    const __m128d w1 = _mm256_castpd256_pd128(w);
    const __m128d quarter1 = _mm256_castpd256_pd128(quarter);
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 4), [=](std::int64_t i) {
          std::uint64_t base = static_cast<std::uint64_t>(i) << 1;
          for (int k = 1; k < 4; ++k) base = insert_zero_bit(base, masks[k]);
          cplx* g = a + base;
          __m128d d[4];
          for (unsigned k = 0; k < 4; ++k)
            d[k] = _mm_loadu_pd(
                reinterpret_cast<const double*>(g + off[5 * k]));
          const __m128d sum =
              _mm_add_pd(_mm_add_pd(_mm_add_pd(d[0], d[1]), d[2]), d[3]);
          const __m128d wavg = _mm_mul_pd(w1, _mm_mul_pd(quarter1, sum));
          for (const std::uint64_t o : reg) {
            double* p = reinterpret_cast<double*>(g + o);
            _mm256_storeu_pd(p, _mm256_mul_pd(keep, _mm256_loadu_pd(p)));
          }
          for (unsigned k = 0; k < 4; ++k)
            _mm_storeu_pd(reinterpret_cast<double*>(g + off[5 * k]),
                          _mm_add_pd(_mm_mul_pd(keep1, d[k]), wavg));
        });
    return;
  }
  // Every mask >= 2: two groups per register.  The grain keeps the scalar
  // loop's fan-out size.
  util::parallel_for(
      static_cast<std::int64_t>(dim >> 5),
      [=](std::int64_t i) {
        std::uint64_t base = static_cast<std::uint64_t>(i) << 1;
        for (const std::uint64_t m : masks) base = insert_zero_bit(base, m);
        cplx* g = a + base;
        const auto at = [&](unsigned k) {
          return _mm256_loadu_pd(reinterpret_cast<const double*>(g + off[k]));
        };
        __m256d sum = _mm256_add_pd(at(0), at(5));
        sum = _mm256_add_pd(sum, at(10));
        sum = _mm256_add_pd(sum, at(15));
        const __m256d wavg = _mm256_mul_pd(w, _mm256_mul_pd(quarter, sum));
        for (unsigned k = 0; k < 16; ++k) {
          __m256d x = _mm256_mul_pd(keep, at(k));
          if (k % 5 == 0) x = _mm256_add_pd(x, wavg);
          _mm256_storeu_pd(reinterpret_cast<double*>(g + off[k]), x);
        }
      },
      /*grain=*/512);
}

void k_accum_add(cplx* acc, const cplx* src, std::uint64_t n) {
  util::parallel_for(static_cast<std::int64_t>(n >> 1), [=](std::int64_t k) {
    const std::uint64_t i = static_cast<std::uint64_t>(k) << 1;
    (CVec4d::load(acc + i) + CVec4d::load(src + i)).store(acc + i);
  });
  if (n & 1) acc[n - 1] += src[n - 1];
}

// ---- lane batch ----------------------------------------------------------
// A row of two lanes is one register [re0, im0, re1, im1]; its squares
// plus their pairwise swap give [|x0|^2, |x0|^2, |x1|^2, |x1|^2], so one add
// per row advances both lanes' chains (a four-lane row is two registers,
// two independent chains).  A lone lane sums with the scalar body.

inline __m256d abs2_dup(__m256d x) {
  const __m256d sq = _mm256_mul_pd(x, x);
  return _mm256_add_pd(sq, _mm256_permute_pd(sq, 0x5));
}

/// The chains of L = 2 or 4 lanes, fed one group of two registers: two
/// rows of two lanes, or one row of four.
template <int L>
struct LaneSums {
  static constexpr bool kFused = true;
  static constexpr int R = L / 2;  // registers per row
  __m256d k, s1[R], sn[R];

  explicit LaneSums(double keep) : k(_mm256_set1_pd(keep)) {
    for (int r = 0; r < R; ++r) s1[r] = sn[r] = _mm256_setzero_pd();
  }

  void operator()(const CVec4d* x, std::uint64_t row, std::uint64_t mask) {
    for (int q = 0; q < 2; q += R) {
      const bool set = (row + static_cast<std::uint64_t>(q / R)) & mask;
      for (int r = 0; r < R; ++r) {
        const __m256d v = x[q + r].v;
        if (set) {
          s1[r] = _mm256_add_pd(s1[r], abs2_dup(v));
          sn[r] = _mm256_add_pd(sn[r], abs2_dup(_mm256_mul_pd(v, k)));
        } else {
          sn[r] = _mm256_add_pd(sn[r], abs2_dup(v));
        }
      }
    }
  }

  void take(double* p1, double* norm) const {
    for (int r = 0; r < R; ++r) {
      alignas(32) double b1[4], bn[4];
      _mm256_store_pd(b1, s1[r]);
      _mm256_store_pd(bn, sn[r]);
      for (int t = 0; t < 2; ++t) {
        p1[2 * r + t] = b1[2 * t];
        norm[2 * r + t] = bn[2 * t];
      }
    }
  }
};

void k_lane_sweep(cplx* a, std::uint64_t dim, int lanes, const LaneOp* ops,
                  int k, std::uint64_t sums_mask, double keep, double* p1,
                  double* norm) {
  if (lanes == 4)
    return lane_sweep_body<2, CVec4d, 2, LaneSums<4>>(
        a, dim, 4, ops, k, sums_mask, keep, p1, norm);
  if (lanes == 2)
    return lane_sweep_body<2, CVec4d, 2, LaneSums<2>>(
        a, dim, 2, ops, k, sums_mask, keep, p1, norm);
  // A lone lane of one qubit is a single register.
  if (dim < 4)
    return lane_sweep_body<1, CVec4d, 2, ScalarLaneSums<1>>(
        a, dim, 1, ops, k, sums_mask, keep, p1, norm);
  lane_sweep_body<2, CVec4d, 2, ScalarLaneSums<1>>(a, dim, 1, ops, k,
                                                   sums_mask, keep, p1, norm);
}

constexpr KernelTable kAvx2Table = {
    .name = "avx2",
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

const KernelTable* table_avx2() { return &kAvx2Table; }

}  // namespace charter::math::simd

#else  // !CHARTER_SIMD_HAS_AVX2

namespace charter::math::simd {
const KernelTable* table_avx2() { return nullptr; }
}  // namespace charter::math::simd

#endif
