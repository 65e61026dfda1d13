// Width-8 kernel path: four complex doubles per 512-bit AVX-512 register.
// This translation unit is compiled with -mavx512f -mavx512dq when the
// CHARTER_SIMD_AVX512 CMake option is on (see CMakeLists.txt) and only ever
// entered after the dispatcher's runtime CPUID check, so the rest of the
// binary stays baseline-ISA clean.
//
// Iteration strategy mirrors the AVX2 unit, one register width up: strides
// >= 4 process four pairs (one 512-bit load per stream) per iteration, while
// stride 1 and 2 keep whole pair groups inside a register and resolve them
// with _mm512_shuffle_f64x2 128-bit-lane permutes.
//
// The density-matrix kernels are vectorized here too, not forwarded: up to
// an L2-sized rho they are limited by arithmetic, not memory, so the extra
// width pays.  Against the AVX2 forms, single-threaded on a 4-vCPU
// AVX-512 host (48 KiB L1, 2 MiB L2; bench_sim_kernels at n = 5..9, median
// of 3), the row x column diagonal kernel ran 1.3-1.6x faster, the fused
// 1q pair 1.2-1.6x, the CX pair up to 2.5x and the thermal block up to
// 1.6x, the gains shrinking once vec(rho) (16 * 4^n bytes) outgrows L2 at
// n >= 8.  Each computes every element with the AVX2 form's operation
// sequence, so the two paths are byte-identical on them
// (tests/test_simd.cpp), and forwards to AVX2 on the shapes it does not
// cover.
//
// Each output element is computed by a fixed operation sequence, so results
// are deterministic per path and across thread counts; FMA contraction is
// what separates this path from scalar (<= 1e-12, tests/test_simd.cpp).

#include <algorithm>
#include <array>
#include <utility>

#include "math/simd.hpp"
#include "math/simd_diag_run.hpp"
#include "util/parallel.hpp"

#if defined(CHARTER_SIMD_HAS_AVX512)

namespace charter::math::simd {

namespace {

/// Table for the shapes this unit's kernels do not cover (small dims, low
/// masks): AVX2 when compiled in, scalar otherwise.
const KernelTable* narrow() {
  const KernelTable* t = table_avx2();
  return t != nullptr ? t : table_scalar();
}

// Lane-permute immediates for _mm512_shuffle_f64x2: destination 128-bit
// lane k takes source lane (imm >> 2k) & 3.
inline constexpr int kDupEvenS1 = 0xA0;  // [0,0,2,2] — pair-lo, stride 1
inline constexpr int kDupOddS1 = 0xF5;   // [1,1,3,3] — pair-hi, stride 1
inline constexpr int kSwapS1 = 0xB1;     // [1,0,3,2] — exchange, stride 1
inline constexpr int kDupLoS2 = 0x44;    // [0,1,0,1] — pair-lo, stride 2
inline constexpr int kDupHiS2 = 0xEE;    // [2,3,2,3] — pair-hi, stride 2
inline constexpr int kSwapS2 = 0x4E;     // [2,3,0,1] — exchange, stride 2

void k_apply_1q(cplx* a, std::uint64_t dim, int q, const Mat2& u) {
  if (dim < 8) {
    narrow()->apply_1q(a, dim, q, u);
    return;
  }
  const std::uint64_t stride = 1ULL << q;
  if (stride == 1) {
    // Register holds two full pairs: [a0, a1 | a2, a3].
    const CVec8d cA = CVec8d::set4(u(0, 0), u(1, 0), u(0, 0), u(1, 0));
    const CVec8d cB = CVec8d::set4(u(0, 1), u(1, 1), u(0, 1), u(1, 1));
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         const CVec8d x = CVec8d::load(ptr);
                         (cmul(x.lanes<kDupEvenS1>(), cA) +
                          cmul(x.lanes<kDupOddS1>(), cB))
                             .store(ptr);
                       });
    return;
  }
  if (stride == 2) {
    // Register holds two interleaved pairs: [x(i), x(i+1) | x(i+2), x(i+3)]
    // with pairs (i, i+2) and (i+1, i+3).
    const CVec8d cA = CVec8d::set4(u(0, 0), u(0, 0), u(1, 0), u(1, 0));
    const CVec8d cB = CVec8d::set4(u(0, 1), u(0, 1), u(1, 1), u(1, 1));
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         const CVec8d x = CVec8d::load(ptr);
                         (cmul(x.lanes<kDupLoS2>(), cA) +
                          cmul(x.lanes<kDupHiS2>(), cB))
                             .store(ptr);
                       });
    return;
  }
  // stride >= 4: four consecutive pairs per iteration, contiguous streams.
  const CVec8d u00 = CVec8d::bcast(u(0, 0)), u01 = CVec8d::bcast(u(0, 1));
  const CVec8d u10 = CVec8d::bcast(u(1, 0)), u11 = CVec8d::bcast(u(1, 1));
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p) << 2;
    const std::uint64_t i0 = insert_zero_bit(up, stride);
    const CVec8d x0 = CVec8d::load(a + i0);
    const CVec8d x1 = CVec8d::load(a + (i0 | stride));
    cfma(cmul(x0, u00), x1, u01).store(a + i0);
    cfma(cmul(x0, u10), x1, u11).store(a + (i0 | stride));
  });
}

void k_apply_diag_1q(cplx* a, std::uint64_t dim, int q, cplx d0, cplx d1) {
  if (dim < 8) {
    narrow()->apply_diag_1q(a, dim, q, d0, d1);
    return;
  }
  const std::uint64_t mask = 1ULL << q;
  if (mask == 1) {
    const CVec8d d = CVec8d::set4(d0, d1, d0, d1);
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         cmul(CVec8d::load(ptr), d).store(ptr);
                       });
    return;
  }
  if (mask == 2) {
    const CVec8d d = CVec8d::set4(d0, d0, d1, d1);
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         cmul(CVec8d::load(ptr), d).store(ptr);
                       });
    return;
  }
  // mask >= 4: each register of four consecutive amplitudes shares the bit.
  const CVec8d v0 = CVec8d::bcast(d0), v1 = CVec8d::bcast(d1);
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t k) {
    const std::uint64_t i = static_cast<std::uint64_t>(k) << 2;
    cmul(CVec8d::load(a + i), (i & mask) ? v1 : v0).store(a + i);
  });
}

void k_apply_x(cplx* a, std::uint64_t dim, int q) {
  if (dim < 8) {
    narrow()->apply_x(a, dim, q);
    return;
  }
  const std::uint64_t stride = 1ULL << q;
  if (stride == 1) {
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         CVec8d::load(ptr).lanes<kSwapS1>().store(ptr);
                       });
    return;
  }
  if (stride == 2) {
    util::parallel_for(static_cast<std::int64_t>(dim >> 2),
                       [=](std::int64_t k) {
                         cplx* ptr = a + (static_cast<std::uint64_t>(k) << 2);
                         CVec8d::load(ptr).lanes<kSwapS2>().store(ptr);
                       });
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p) << 2;
    const std::uint64_t i0 = insert_zero_bit(up, stride);
    const CVec8d x0 = CVec8d::load(a + i0);
    const CVec8d x1 = CVec8d::load(a + (i0 | stride));
    x1.store(a + i0);
    x0.store(a + (i0 | stride));
  });
}

void k_apply_cx(cplx* a, std::uint64_t dim, int c, int t) {
  const std::uint64_t cmask = 1ULL << c;
  const std::uint64_t tmask = 1ULL << t;
  if (dim < 8 || cmask < 4 || tmask < 4) {
    // A narrow mask breaks the four-consecutive-pairs layout; CX is a pure
    // permutation, so the narrower path is bit-exact.
    narrow()->apply_cx(a, dim, c, t);
    return;
  }
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p) << 2;
    const std::uint64_t i0 = insert_zero_bit(up, tmask);
    if (!(i0 & cmask)) return;
    const CVec8d x0 = CVec8d::load(a + i0);
    const CVec8d x1 = CVec8d::load(a + (i0 | tmask));
    x1.store(a + i0);
    x0.store(a + (i0 | tmask));
  });
}

void k_apply_diag_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                     const std::array<cplx, 4>& d) {
  if (dim < 8) {
    narrow()->apply_diag_2q(a, dim, qa, qb, d);
    return;
  }
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  if (amask >= 4 && bmask >= 4) {
    const std::array<CVec8d, 4> db = {CVec8d::bcast(d[0]), CVec8d::bcast(d[1]),
                                      CVec8d::bcast(d[2]),
                                      CVec8d::bcast(d[3])};
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 2), [=](std::int64_t k) {
          const std::uint64_t i = static_cast<std::uint64_t>(k) << 2;
          const unsigned idx =
              ((i & amask) ? 1u : 0u) | ((i & bmask) ? 2u : 0u);
          cmul(CVec8d::load(a + i), db[idx]).store(a + i);
        });
    return;
  }
  // Narrow mask: gather the per-element factors with set4 (element-generic).
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t k) {
    const std::uint64_t i = static_cast<std::uint64_t>(k) << 2;
    const auto sel = [=](std::uint64_t j) {
      return ((j & amask) ? 1u : 0u) | ((j & bmask) ? 2u : 0u);
    };
    const CVec8d m =
        CVec8d::set4(d[sel(i)], d[sel(i + 1)], d[sel(i + 2)], d[sel(i + 3)]);
    cmul(CVec8d::load(a + i), m).store(a + i);
  });
}

void k_apply_diag_run(cplx* a, std::uint64_t dim, const DiagOp* ops, int k) {
  if (dim < 8) {
    narrow()->apply_diag_run(a, dim, ops, k);
    return;
  }
  diag_run<CVec8d, 4>(a, dim, ops, k);
}

void k_apply_2q(cplx* a, std::uint64_t dim, int qa, int qb, const Mat4& u) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  if (dim < 32 || lo < 4) {
    // The wide path wants four contiguous group bases; the AVX2 unit covers
    // lo == 2 and scalar covers bit 0.
    narrow()->apply_2q(a, dim, qa, qb, u);
    return;
  }
  // lo >= 4: group bases come in runs of four; four groups per iteration,
  // one 512-bit load per input stream — the hot kernel of fused-wide
  // trajectory sweeps.
  std::array<CVec8d, 16> um;
  for (int r = 0; r < 4; ++r)
    for (int k = 0; k < 4; ++k)
      um[static_cast<std::size_t>(r * 4 + k)] = CVec8d::bcast(u(r, k));
  util::parallel_for(static_cast<std::int64_t>(dim >> 4), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i) << 2,
                                         lo);
    base = insert_zero_bit(base, hi);
    const std::uint64_t idx[4] = {base, base | amask, base | bmask,
                                  base | amask | bmask};
    CVec8d in[4];
    for (int k = 0; k < 4; ++k) in[k] = CVec8d::load(a + idx[k]);
    for (int r = 0; r < 4; ++r) {
      CVec8d acc = cmul(in[0], um[static_cast<std::size_t>(r * 4)]);
      for (int k = 1; k < 4; ++k)
        acc = cfma(acc, in[k], um[static_cast<std::size_t>(r * 4 + k)]);
      acc.store(a + idx[r]);
    }
  });
}

// ---- density-matrix kernels -------------------------------------------
// Each entry below performs, per element, the multiply / fmaddsub / FMA
// sequence of its AVX2 form, so vec(rho) is byte-identical on the two
// paths; only the number of groups per register changes.  Groups whose
// lowest mask is >= 4 are taken four to a register.  A mask of 1 or 2
// (density-matrix qubit 0 or 1) keeps two groups per register and resolves
// the in-register pairs with lanes<> permutes and lane-masked blends or
// FMAs.  Shapes neither case covers (both masks < 4, n = 1) forward to the
// AVX2 entry.
//
// Grains keep each loop's fan-out threshold at the vec(rho) size of the
// form it stands in for: four groups per iteration is twice an AVX2
// iteration, and depol2q's four groups are four scalar iterations.
constexpr std::int64_t kWideGrain = 512;
constexpr std::int64_t kDepol2qGrain = 256;

void k_apply_1q_pair(cplx* a, std::uint64_t dim, int qa, const Mat2& ua,
                     int qb, const Mat2& ub) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  const CVec8d b00 = CVec8d::bcast(ub(0, 0)), b01 = CVec8d::bcast(ub(0, 1));
  const CVec8d b10 = CVec8d::bcast(ub(1, 0)), b11 = CVec8d::bcast(ub(1, 1));
  if (lo >= 4) {
    // Group bases come in runs of four; four groups per iteration.
    const CVec8d a00 = CVec8d::bcast(ua(0, 0)), a01 = CVec8d::bcast(ua(0, 1));
    const CVec8d a10 = CVec8d::bcast(ua(1, 0)), a11 = CVec8d::bcast(ua(1, 1));
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 4), [=](std::int64_t i) {
          std::uint64_t base =
              insert_zero_bit(static_cast<std::uint64_t>(i) << 2, lo);
          base = insert_zero_bit(base, hi);
          const CVec8d v00 = CVec8d::load(a + base);
          const CVec8d v10 = CVec8d::load(a + (base | amask));
          const CVec8d v01 = CVec8d::load(a + (base | bmask));
          const CVec8d v11 = CVec8d::load(a + (base | amask | bmask));
          const CVec8d t00 = cfma(cmul(v00, a00), v10, a01);
          const CVec8d t10 = cfma(cmul(v00, a10), v10, a11);
          const CVec8d t01 = cfma(cmul(v01, a00), v11, a01);
          const CVec8d t11 = cfma(cmul(v01, a10), v11, a11);
          cfma(cmul(t00, b00), t01, b01).store(a + base);
          cfma(cmul(t00, b10), t01, b11).store(a + (base | bmask));
          cfma(cmul(t10, b00), t11, b01).store(a + (base | amask));
          cfma(cmul(t10, b10), t11, b11).store(a + (base | amask | bmask));
        },
        /*grain=*/kWideGrain);
    return;
  }
  if (amask > 2 || bmask < 4) {
    narrow()->apply_1q_pair(a, dim, qa, ua, qb, ub);
    return;
  }
  // qa is bit 0 or 1: the register at base holds two groups' (v0x, v1x)
  // pairs, resolved in-register as in apply_1q, and the qb update runs
  // lane-wise between the registers at base and base|bmask.
  const auto run = [&](auto lo_sel, auto hi_sel, CVec8d ca, CVec8d cb) {
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 3), [=](std::int64_t i) {
          const std::uint64_t base =
              insert_zero_bit(static_cast<std::uint64_t>(i) << 2, bmask);
          const CVec8d w0 = CVec8d::load(a + base);
          const CVec8d w1 = CVec8d::load(a + (base | bmask));
          const CVec8d t0 = cfma(cmul(lo_sel(w0), ca), hi_sel(w0), cb);
          const CVec8d t1 = cfma(cmul(lo_sel(w1), ca), hi_sel(w1), cb);
          cfma(cmul(t0, b00), t1, b01).store(a + base);
          cfma(cmul(t0, b10), t1, b11).store(a + (base | bmask));
        });
  };
  if (amask == 1)
    run([](CVec8d x) { return x.lanes<kDupEvenS1>(); },
        [](CVec8d x) { return x.lanes<kDupOddS1>(); },
        CVec8d::set4(ua(0, 0), ua(1, 0), ua(0, 0), ua(1, 0)),
        CVec8d::set4(ua(0, 1), ua(1, 1), ua(0, 1), ua(1, 1)));
  else
    run([](CVec8d x) { return x.lanes<kDupLoS2>(); },
        [](CVec8d x) { return x.lanes<kDupHiS2>(); },
        CVec8d::set4(ua(0, 0), ua(0, 0), ua(1, 0), ua(1, 0)),
        CVec8d::set4(ua(0, 1), ua(0, 1), ua(1, 1), ua(1, 1)));
}

void k_apply_diag_rowcol(cplx* a, int n, const cplx* row, const cplx* col) {
  if (n < 2) {
    // A column of two entries fills only half a register.
    narrow()->apply_diag_rowcol(a, n, row, col);
    return;
  }
  const std::uint64_t len = 1ULL << n;
  util::parallel_for(
      static_cast<std::int64_t>(len),
      [=](std::int64_t c) {
        cplx* seg = a + (static_cast<std::uint64_t>(c) << n);
        const CVec8d f = CVec8d::bcast(col[c]);
        for (std::uint64_t r = 0; r < len; r += 4)
          cmul(cmul(CVec8d::load(seg + r), CVec8d::load(row + r)), f)
              .store(seg + r);
      },
      /*grain=*/32);
}

/// Double-lane mask of the groups whose control bit \p cm is set, in a
/// register holding x(base) .. x(base + 3) with base % 4 == 0: every lane,
/// or — when cm is bit 0 or 1, which then selects the group — the lanes k
/// with k & cm.
inline __mmask8 control_lanes(std::uint64_t base, std::uint64_t cm) {
  if (base & cm) return 0xFF;
  return cm == 1 ? 0xCC : cm == 2 ? 0xF0 : 0x00;
}

/// Exchanges the lanes of \p x and \p y selected by \p m.
inline void exchange(CVec8d& x, CVec8d& y, __mmask8 m) {
  const __m512d nx = _mm512_mask_blend_pd(m, x.v, y.v);
  y = {_mm512_mask_blend_pd(m, y.v, x.v)};
  x = {nx};
}

/// Swaps each in-register target pair (kSwap: bit-0 or bit-1 partner) on
/// the lanes selected by \p m.
template <int kSwap>
CVec8d swap_pairs(CVec8d x, __mmask8 m) {
  return {_mm512_mask_blend_pd(m, x.v, x.lanes<kSwap>().v)};
}

void k_apply_cx_pair(cplx* a, std::uint64_t dim, int c1, int t1, int c2,
                     int t2) {
  const std::uint64_t c1m = 1ULL << c1;
  const std::uint64_t t1m = 1ULL << t1;
  const std::uint64_t c2m = 1ULL << c2;
  const std::uint64_t t2m = 1ULL << t2;
  const std::uint64_t lo = t1m < t2m ? t1m : t2m;
  const std::uint64_t hi = t1m < t2m ? t2m : t1m;
  if (lo >= 4) {
    // Four groups per register; a control on bit 0 or 1 selects lanes.
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 4), [=](std::int64_t i) {
          std::uint64_t base =
              insert_zero_bit(static_cast<std::uint64_t>(i) << 2, lo);
          base = insert_zero_bit(base, hi);
          const __mmask8 m1 = control_lanes(base, c1m);
          const __mmask8 m2 = control_lanes(base, c2m);
          if ((m1 | m2) == 0) return;
          CVec8d v0 = CVec8d::load(a + base);
          CVec8d v1 = CVec8d::load(a + (base | t1m));
          CVec8d v2 = CVec8d::load(a + (base | t2m));
          CVec8d v3 = CVec8d::load(a + (base | t1m | t2m));
          exchange(v0, v1, m1);
          exchange(v2, v3, m1);
          exchange(v0, v2, m2);
          exchange(v1, v3, m2);
          v0.store(a + base);
          v1.store(a + (base | t1m));
          v2.store(a + (base | t2m));
          v3.store(a + (base | t1m | t2m));
        },
        /*grain=*/kWideGrain);
    return;
  }
  if (hi < 4) {
    narrow()->apply_cx_pair(a, dim, c1, t1, c2, t2);
    return;
  }
  // One target is bit 0 or 1: its pairs sit inside the registers at base
  // and base|hi (two groups each), the other target's pairs across them.
  const auto run = [&](auto swap_in_register) {
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 3), [=](std::int64_t i) {
          const std::uint64_t base =
              insert_zero_bit(static_cast<std::uint64_t>(i) << 2, hi);
          const __mmask8 m1 = control_lanes(base, c1m);
          const __mmask8 m2 = control_lanes(base, c2m);
          if ((m1 | m2) == 0) return;
          CVec8d v0 = CVec8d::load(a + base);
          CVec8d v1 = CVec8d::load(a + (base | hi));
          // The two CX in order: first (c1, t1), then (c2, t2).
          const auto apply = [&](__mmask8 m, std::uint64_t tm) {
            if (tm == lo) {
              v0 = swap_in_register(v0, m);
              v1 = swap_in_register(v1, m);
            } else {
              exchange(v0, v1, m);
            }
          };
          apply(m1, t1m);
          apply(m2, t2m);
          v0.store(a + base);
          v1.store(a + (base | hi));
        });
  };
  if (lo == 1)
    run([](CVec8d x, __mmask8 m) { return swap_pairs<kSwapS1>(x, m); });
  else
    run([](CVec8d x, __mmask8 m) { return swap_pairs<kSwapS2>(x, m); });
}

/// Per-lane constant: \p in on the lanes of \p k, \p out elsewhere.
inline __m512d lanes_of(__mmask8 k, double in, double out) {
  return _mm512_mask_blend_pd(k, _mm512_set1_pd(out), _mm512_set1_pd(in));
}

/// One channel block's per-entry arithmetic for the two-groups-per-register
/// layout: entry x becomes x * mul and then, on the lanes of fma,
/// fma(partner, w, x * mul) — the AVX2 form's sequence for that entry.
struct BlockLanes {
  __m512d mul_a, w_a;  ///< register at base: the 00 and 10 entries
  __m512d mul_b, w_b;  ///< register at base|hi: the 01 and 11 entries
  __mmask8 fma_a, fma_b;
};

/// Masks 1 and 2 with hi >= 4.  The register at base holds the (00, 10)
/// entries of two groups and the one at base|hi their (01, 11) entries:
/// [00, 10, 00', 10'] when lo is bit 0 (\p kSwap = kSwapS1) and
/// [00, 00', 10, 10'] when lo is bit 1 (kSwapS2).  kSwap brings each
/// entry's partner (00 <-> 11, 10 <-> 01) from the other register into its
/// lane.
template <int kSwap>
void block_lanes_loop(cplx* a, std::uint64_t dim, std::uint64_t hi,
                      const BlockLanes& k) {
  util::parallel_for(static_cast<std::int64_t>(dim >> 3), [=](std::int64_t i) {
    const std::uint64_t base =
        insert_zero_bit(static_cast<std::uint64_t>(i) << 2, hi);
    const CVec8d x = CVec8d::load(a + base);
    const CVec8d y = CVec8d::load(a + (base | hi));
    const CVec8d nx = {_mm512_mask3_fmadd_pd(y.lanes<kSwap>().v, k.w_a,
                                             _mm512_mul_pd(x.v, k.mul_a),
                                             k.fma_a)};
    const CVec8d ny = {_mm512_mask3_fmadd_pd(x.lanes<kSwap>().v, k.w_b,
                                             _mm512_mul_pd(y.v, k.mul_b),
                                             k.fma_b)};
    nx.store(a + base);
    ny.store(a + (base | hi));
  });
}

/// Runs a channel block with masks lo < hi on the lane layout when lo is
/// bit 0 or 1; \p coeffs maps the double-lane mask of the 00 (and 01)
/// entries to the block's BlockLanes.  False when the shape is not covered.
template <typename Coeffs>
bool channel_block_lanes(cplx* a, std::uint64_t dim, std::uint64_t lo,
                         std::uint64_t hi, Coeffs&& coeffs) {
  if (hi < 4) return false;
  if (lo == 1)
    block_lanes_loop<kSwapS1>(a, dim, hi, coeffs(__mmask8{0x33}, true));
  else
    block_lanes_loop<kSwapS2>(a, dim, hi, coeffs(__mmask8{0x0F}, false));
  return true;
}

void k_thermal_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double gamma, double keep) {
  const std::uint64_t lo = row < col ? row : col;
  const std::uint64_t hi = row < col ? col : row;
  if (lo >= 4) {
    const __m512d g = _mm512_set1_pd(gamma);
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 4), [=](std::int64_t i) {
          std::uint64_t base =
              insert_zero_bit(static_cast<std::uint64_t>(i) << 2, lo);
          base = insert_zero_bit(base, hi);
          const CVec8d v11 = CVec8d::load(a + (base | row | col));
          CVec8d v00 = CVec8d::load(a + base);
          v00 = {_mm512_fmadd_pd(v11.v, g, v00.v)};
          v00.store(a + base);
          v11.rscale(1.0 - gamma).store(a + (base | row | col));
          CVec8d::load(a + (base | col)).rscale(keep).store(a + (base | col));
          CVec8d::load(a + (base | row)).rscale(keep).store(a + (base | row));
        },
        /*grain=*/kWideGrain);
    return;
  }
  // rho00 gains gamma*rho11 (times 1.0 first on the AVX2 bit-0 path, an
  // exact no-op); rho11 is scaled by 1-gamma, plus 0*rho00 on the AVX2
  // bit-0 path only; coherences are scaled by keep.
  const bool done = channel_block_lanes(
      a, dim, lo, hi, [&](__mmask8 k00, bool bit0) {
        return BlockLanes{lanes_of(k00, 1.0, keep), _mm512_set1_pd(gamma),
                          lanes_of(k00, keep, 1.0 - gamma),
                          _mm512_setzero_pd(), k00,
                          bit0 ? static_cast<__mmask8>(~k00) : __mmask8{0}};
      });
  if (!done) narrow()->thermal_block(a, dim, row, col, gamma, keep);
}

void k_depol1q_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double mix, double coh) {
  const std::uint64_t lo = row < col ? row : col;
  const std::uint64_t hi = row < col ? col : row;
  if (lo >= 4) {
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 4), [=](std::int64_t i) {
          std::uint64_t base =
              insert_zero_bit(static_cast<std::uint64_t>(i) << 2, lo);
          base = insert_zero_bit(base, hi);
          const CVec8d d0 = CVec8d::load(a + base);
          const CVec8d d1 = CVec8d::load(a + (base | row | col));
          d0.rmix(1.0 - mix, d1, mix).store(a + base);
          d1.rmix(1.0 - mix, d0, mix).store(a + (base | row | col));
          CVec8d::load(a + (base | col)).rscale(coh).store(a + (base | col));
          CVec8d::load(a + (base | row)).rscale(coh).store(a + (base | row));
        },
        /*grain=*/kWideGrain);
    return;
  }
  const bool done = channel_block_lanes(
      a, dim, lo, hi, [&](__mmask8 k00, bool) {
        const __m512d w = _mm512_set1_pd(mix);
        return BlockLanes{lanes_of(k00, 1.0 - mix, coh), w,
                          lanes_of(k00, coh, 1.0 - mix), w, k00,
                          static_cast<__mmask8>(~k00)};
      });
  if (!done) narrow()->depol1q_block(a, dim, row, col, mix, coh);
}

void k_bitflip_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double p) {
  const std::uint64_t lo = row < col ? row : col;
  const std::uint64_t hi = row < col ? col : row;
  if (lo >= 4) {
    util::parallel_for(
        static_cast<std::int64_t>(dim >> 4), [=](std::int64_t i) {
          std::uint64_t base =
              insert_zero_bit(static_cast<std::uint64_t>(i) << 2, lo);
          base = insert_zero_bit(base, hi);
          const CVec8d b00 = CVec8d::load(a + base);
          const CVec8d b01 = CVec8d::load(a + (base | col));
          const CVec8d b10 = CVec8d::load(a + (base | row));
          const CVec8d b11 = CVec8d::load(a + (base | row | col));
          b00.rmix(1.0 - p, b11, p).store(a + base);
          b11.rmix(1.0 - p, b00, p).store(a + (base | row | col));
          b01.rmix(1.0 - p, b10, p).store(a + (base | col));
          b10.rmix(1.0 - p, b01, p).store(a + (base | row));
        },
        /*grain=*/kWideGrain);
    return;
  }
  const bool done = channel_block_lanes(a, dim, lo, hi, [&](__mmask8, bool) {
    const __m512d keep = _mm512_set1_pd(1.0 - p), w = _mm512_set1_pd(p);
    return BlockLanes{keep, w, keep, w, 0xFF, 0xFF};
  });
  if (!done) narrow()->bitflip_block(a, dim, row, col, p);
}

void k_depol2q_block(cplx* a, std::uint64_t dim, std::uint64_t ra,
                     std::uint64_t rb, std::uint64_t ca, std::uint64_t cb,
                     double lambda) {
  std::array<std::uint64_t, 4> masks = {ra, rb, ca, cb};
  std::sort(masks.begin(), masks.end());
  if (masks[0] < 4) {
    // 512-bit forms for a bit-0 or bit-1 mask measured no faster than the
    // AVX2 forms (0.9-1.1x at n = 5..9).
    narrow()->depol2q_block(a, dim, ra, rb, ca, cb, lambda);
    return;
  }
  // Four groups per register, with the AVX2 form's separate multiplies and
  // adds (this unit is built with -ffp-contract=off too).
  const std::array<std::uint64_t, 16> off = depol2q_offsets(ra, rb, ca, cb);
  const __m512d keep = _mm512_set1_pd(1.0 - lambda);
  const __m512d w = _mm512_set1_pd(lambda);
  const __m512d quarter = _mm512_set1_pd(0.25);
  util::parallel_for(
      static_cast<std::int64_t>(dim >> 6),
      [=](std::int64_t i) {
        std::uint64_t base = static_cast<std::uint64_t>(i) << 2;
        for (const std::uint64_t m : masks) base = insert_zero_bit(base, m);
        cplx* g = a + base;
        const auto at = [&](unsigned k) {
          return _mm512_loadu_pd(reinterpret_cast<const double*>(g + off[k]));
        };
        __m512d sum = _mm512_add_pd(at(0), at(5));
        sum = _mm512_add_pd(sum, at(10));
        sum = _mm512_add_pd(sum, at(15));
        const __m512d wavg = _mm512_mul_pd(w, _mm512_mul_pd(quarter, sum));
        for (unsigned k = 0; k < 16; ++k) {
          __m512d x = _mm512_mul_pd(keep, at(k));
          if (k % 5 == 0) x = _mm512_add_pd(x, wavg);
          _mm512_storeu_pd(reinterpret_cast<double*>(g + off[k]), x);
        }
      },
      /*grain=*/kDepol2qGrain);
}

void k_accum_add(cplx* acc, const cplx* src, std::uint64_t n) {
  util::parallel_for(static_cast<std::int64_t>(n >> 2), [=](std::int64_t k) {
    const std::uint64_t i = static_cast<std::uint64_t>(k) << 2;
    (CVec8d::load(acc + i) + CVec8d::load(src + i)).store(acc + i);
  });
  for (std::uint64_t i = n & ~std::uint64_t{3}; i < n; ++i) acc[i] += src[i];
}

constexpr KernelTable kAvx512Table = {
    .name = "avx512",
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
};

}  // namespace

const KernelTable* table_avx512() { return &kAvx512Table; }

}  // namespace charter::math::simd

#else  // !CHARTER_SIMD_HAS_AVX512

namespace charter::math::simd {
const KernelTable* table_avx512() { return nullptr; }
}  // namespace charter::math::simd

#endif
