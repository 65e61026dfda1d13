#pragma once

/// \file simd.hpp
/// Portable SIMD layer for the hot simulation kernels.
///
/// Four implementations of the same kernel set coexist in the binary,
/// selected at runtime by CPU-feature dispatch (simd_dispatch.hpp):
///
///  - scalar   plain std::complex loops, bit-identical to the historical
///             kernels (the determinism anchor every other path is tested
///             against);
///  - width-2  one complex double per 128-bit vector — SSE2 on x86-64,
///             NEON on aarch64 (both baseline ISAs, always available when
///             the translation unit compiles);
///  - width-4  two complex doubles per 256-bit vector — AVX2+FMA on
///             x86-64, compiled in its own translation unit with
///             -mavx2 -mfma and only ever called after a runtime CPUID
///             check;
///  - width-8  four complex doubles per 512-bit vector — AVX-512 F+DQ on
///             x86-64, compiled in its own translation unit (gated by the
///             CHARTER_SIMD_AVX512 CMake option) with -mavx512f -mavx512dq
///             and only ever called after a runtime CPUID check.
///
/// The vector types below (CVec2d / CVec4d / CVec8d) are defined only when
/// the including translation unit enables the matching ISA, so ordinary code
/// never sees intrinsics; everything else reaches the kernels through the
/// KernelTable function-pointer set, which keeps the call ABI identical
/// across paths and lets sim/kernels.hpp stay a thin forwarding header.
///
/// Determinism contract (tested by tests/test_simd.cpp):
///  - each path computes every output element with a fixed operation order,
///    so results are bit-identical run-to-run and across thread counts;
///  - the scalar path is bit-identical to the pre-SIMD kernels;
///  - paths agree with each other to <= 1e-12 in max-abs amplitude
///    difference (FMA and reassociation change rounding, never physics);
///  - some entries are exact on every path: apply_diag_run against the
///    per-op calls, depol2q_block, and lane_sweep against the per-op
///    kernels and the scalar body's lane sums.

#include <array>
#include <cstdint>

#include "math/matrix.hpp"

namespace charter::math::simd {

/// Widens \p x by inserting a zero bit at the position given by \p mask
/// (a power of two).  Shared by every kernel's pair/group enumeration.
inline std::uint64_t insert_zero_bit(std::uint64_t x, std::uint64_t mask) {
  return ((x & ~(mask - 1)) << 1) | (x & (mask - 1));
}

/// Offsets of the 16 entries of a two-qubit depolarizing group from its
/// base: entry (r, c) at [4r + c], r and c indexing bit(a) + 2*bit(b) of the
/// row masks ra, rb and the column masks ca, cb; the diagonal is
/// [0], [5], [10], [15].
inline std::array<std::uint64_t, 16> depol2q_offsets(std::uint64_t ra,
                                                     std::uint64_t rb,
                                                     std::uint64_t ca,
                                                     std::uint64_t cb) {
  std::array<std::uint64_t, 16> off;
  for (unsigned r = 0; r < 4; ++r)
    for (unsigned c = 0; c < 4; ++c)
      off[4 * r + c] = ((r & 1u) ? ra : 0) | ((r & 2u) ? rb : 0) |
                       ((c & 1u) ? ca : 0) | ((c & 2u) ? cb : 0);
  return off;
}

/// One kernel set.  Signatures mirror sim/kernels.hpp exactly; `dim` is the
/// amplitude count (a power of two), qubit q maps to bit q of the index.
/// The density-matrix entries see vec(rho) as 2n pseudo-qubits (row bits
/// 0..n-1, column bits n..2n-1); apply_diag_rowcol alone takes n instead of
/// dim, because it walks vec(rho) as 2^n contiguous column segments.  The
/// lane-batch entry takes the amplitude count of one lane, and a lane
/// count.
struct KernelTable {
  const char* name;  ///< "scalar", "sse2"/"neon", "avx2", or "avx512"

  // ---- statevector / generic gate kernels -------------------------------
  void (*apply_1q)(cplx* a, std::uint64_t dim, int q, const Mat2& u);
  void (*apply_diag_1q)(cplx* a, std::uint64_t dim, int q, cplx d0, cplx d1);
  void (*apply_x)(cplx* a, std::uint64_t dim, int q);
  void (*apply_cx)(cplx* a, std::uint64_t dim, int c, int t);
  void (*apply_diag_2q)(cplx* a, std::uint64_t dim, int qa, int qb,
                        const std::array<cplx, 4>& d);
  /// Dense 4x4 unitary on (qa, qb); index convention bit(qa) + 2*bit(qb).
  /// Hot on fused-wide tapes (noise::fused_wide emits kUnitary2q ops).
  void (*apply_2q)(cplx* a, std::uint64_t dim, int qa, int qb, const Mat4& u);
  /// A run of 1 <= k <= kMaxDiagRun diagonal ops in one sweep: each
  /// element is multiplied by ops[0]'s factor, then ops[1]'s, and so on,
  /// with the path's own complex multiply.  That multiply is element-wise,
  /// so the result is byte-identical to k apply_diag_1q / apply_diag_2q
  /// calls on the same path.
  void (*apply_diag_run)(cplx* a, std::uint64_t dim, const DiagOp* ops,
                         int k);

  // ---- fused density-matrix pair kernels --------------------------------
  void (*apply_1q_pair)(cplx* a, std::uint64_t dim, int qa, const Mat2& ua,
                        int qb, const Mat2& ub);
  void (*apply_cx_pair)(cplx* a, std::uint64_t dim, int c1, int t1, int c2,
                        int t2);

  /// Diagonal phase on vec(rho) of an n-qubit density matrix:
  /// a[r + (c << n)] = (a[r + (c << n)] * row[r]) * col[c] for r, c in
  /// [0, 2^n).  One entry serves every diagonal gate — the caller fills the
  /// 2^n-entry factor tables (rows from d, columns from conj(d)) — and each
  /// path performs the same two complex multiplies as its apply_diag_1q /
  /// apply_diag_2q run once on the row and once on the column pseudo-qubits,
  /// so it is bit-identical to that two-pass form on every path.
  void (*apply_diag_rowcol)(cplx* a, int n, const cplx* row, const cplx* col);

  // ---- density-matrix channel blocks ------------------------------------
  // All operate on the 4-element groups {base, base|row, base|col,
  // base|row|col} of vec(rho); row/col are single-bit masks with row < col
  // (the vec(rho) layout guarantees col = row << n).

  /// a[i00] += gamma*a[i11]; a[i11] *= 1-gamma; off-diagonals *= keep.
  void (*thermal_block)(cplx* a, std::uint64_t dim, std::uint64_t row,
                        std::uint64_t col, double gamma, double keep);
  /// Diagonals mixed toward each other with weight mix; coherences *= coh.
  void (*depol1q_block)(cplx* a, std::uint64_t dim, std::uint64_t row,
                        std::uint64_t col, double mix, double coh);
  /// Diagonal pair and coherence pair each mixed with weight p.
  void (*bitflip_block)(cplx* a, std::uint64_t dim, std::uint64_t row,
                        std::uint64_t col, double p);
  /// Two-qubit depolarizing on the 16-element groups spanned by row bits
  /// ra, rb and column bits ca, cb: each diagonal entry becomes
  /// (1-lambda)*x + lambda*avg with avg = 0.25*(((a00+a11)+a22)+a33), every
  /// other entry is scaled by 1-lambda.  Separate multiplies and adds in
  /// that order on every path (no FMA), so all paths are bit-identical.
  void (*depol2q_block)(cplx* a, std::uint64_t dim, std::uint64_t ra,
                        std::uint64_t rb, std::uint64_t ca, std::uint64_t cb,
                        double lambda);

  /// acc[i] += src[i] for i in [0, n) — the Kraus-sum accumulation loop.
  void (*accum_add)(cplx* acc, const cplx* src, std::uint64_t n);

  // ---- trajectory lane batch ---------------------------------------------
  /// One pass over a lane block, which interleaves `lanes` (1, 2 or 4)
  /// unravellings of `dim` amplitudes each: amplitude i of lane t sits at
  /// a[i * lanes + t].  Each amplitude takes ops[0], ops[1], ... ops[k - 1]
  /// (0 <= k <= kMaxLaneOps, masks in one lane's qubit space) in order: a
  /// diagonal op with the path's apply_diag_run multiply, a damp-and-scale
  /// as two real products rounded separately.  So every element gets the
  /// bytes of the per-op kernels on that path.  When sums_mask (1 << q) is
  /// not 0, the pass then reads the values it wrote: for each lane t,
  /// summing left to right in ascending i, p1[t] = sum of |a|^2 over i with
  /// bit(i & sums_mask) set, and norm[t] = sum over all i of |a|^2 on clear
  /// bits and |a * keep|^2 on set bits (the no-jump norm).  |z|^2 is
  /// re*re + im*im, two products and one add (no FMA), so the sums are the
  /// scalar body's on every path.  A pass with sums runs serially.
  void (*lane_sweep)(cplx* a, std::uint64_t dim, int lanes,
                     const LaneOp* ops, int k, std::uint64_t sums_mask,
                     double keep, double* p1, double* norm);
};

/// A complex factor y split for cmul: its real part in both slots of every
/// complex (re) and its imaginary part likewise (im).  A loop that applies
/// one factor many times splits it once; cmul(x, y) is
/// cmul(x, csplit(y)), so both forms give the same bytes.
template <typename V>
struct CSplit {
  V re, im;
};

/// Table getters, one per translation unit.  A getter returns nullptr when
/// its ISA was not compiled in (e.g. the AVX2 unit built without
/// -mavx2 -mfma, or the width-2 unit on an ISA with neither SSE2 nor NEON).
const KernelTable* table_scalar();
const KernelTable* table_width2();
const KernelTable* table_avx2();
const KernelTable* table_avx512();

// ===========================================================================
// Width-2 complex vector: one complex double in a 128-bit register.
// Defined for TUs compiled with SSE2 (x86-64 baseline) or NEON (aarch64
// baseline).  Complex multiply uses the same mul/mul/sub/add sequence as
// std::complex, so this path typically matches scalar bit-for-bit.
// ===========================================================================

#if defined(__SSE2__)
#define CHARTER_SIMD_HAS_WIDTH2 1
#include <emmintrin.h>

struct CVec2d {
  __m128d v;

  static CVec2d load(const cplx* p) {
    return {_mm_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(cplx* p) const {
    _mm_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static CVec2d from(cplx c) { return load(&c); }
  static CVec2d zero() { return {_mm_setzero_pd()}; }

  friend CVec2d operator+(CVec2d a, CVec2d b) {
    return {_mm_add_pd(a.v, b.v)};
  }
  /// Scale both components by a real factor.
  CVec2d rscale(double s) const { return {_mm_mul_pd(v, _mm_set1_pd(s))}; }
  /// Each slot times the matching slot of \p f (real factors).
  CVec2d rmul(CVec2d f) const { return {_mm_mul_pd(v, f.v)}; }
};

inline CSplit<CVec2d> csplit(CVec2d y) {
  return {{_mm_unpacklo_pd(y.v, y.v)}, {_mm_unpackhi_pd(y.v, y.v)}};
}

/// Complex product x*y: [ac - bd, bc + ad] via mul/mul/negate-low/add —
/// the exact operation sequence of std::complex multiplication.
inline CVec2d cmul(CVec2d x, CSplit<CVec2d> y) {
  const __m128d xs = _mm_shuffle_pd(x.v, x.v, 1);     // [b, a]
  __m128d t = _mm_mul_pd(xs, y.im.v);                 // [b*d, a*d]
  t = _mm_xor_pd(t, _mm_set_pd(0.0, -0.0));           // [-b*d, a*d]
  return {_mm_add_pd(_mm_mul_pd(x.v, y.re.v), t)};
}
inline CVec2d cmul(CVec2d x, CVec2d y) { return cmul(x, csplit(y)); }

#elif defined(__ARM_NEON) && defined(__aarch64__)
#define CHARTER_SIMD_HAS_WIDTH2 1
#include <arm_neon.h>

struct CVec2d {
  float64x2_t v;

  static CVec2d load(const cplx* p) {
    return {vld1q_f64(reinterpret_cast<const double*>(p))};
  }
  void store(cplx* p) const {
    vst1q_f64(reinterpret_cast<double*>(p), v);
  }
  static CVec2d from(cplx c) { return load(&c); }
  static CVec2d zero() { return {vdupq_n_f64(0.0)}; }

  friend CVec2d operator+(CVec2d a, CVec2d b) {
    return {vaddq_f64(a.v, b.v)};
  }
  CVec2d rscale(double s) const { return {vmulq_n_f64(v, s)}; }
  CVec2d rmul(CVec2d f) const { return {vmulq_f64(v, f.v)}; }
};

inline CSplit<CVec2d> csplit(CVec2d y) {
  return {{vdupq_laneq_f64(y.v, 0)}, {vdupq_laneq_f64(y.v, 1)}};
}

/// Complex product x*y: [ac - bd, bc + ad].  The lane-0 sign flip rides the
/// fused multiply by the exact constants (-1, 1).
inline CVec2d cmul(CVec2d x, CSplit<CVec2d> y) {
  const float64x2_t xs = vextq_f64(x.v, x.v, 1);   // [b, a]
  const float64x2_t sign = {-1.0, 1.0};
  const float64x2_t t = vmulq_f64(xs, y.im.v);     // [b*d, a*d]
  return {vfmaq_f64(vmulq_f64(x.v, y.re.v), t, sign)};
}
inline CVec2d cmul(CVec2d x, CVec2d y) { return cmul(x, csplit(y)); }
#endif  // width-2 ISA

// ===========================================================================
// Width-4 complex vector: two complex doubles in a 256-bit register.
// Only defined in the AVX2+FMA translation unit.
// ===========================================================================

#if defined(__AVX2__) && defined(__FMA__)
#define CHARTER_SIMD_HAS_AVX2 1
#include <immintrin.h>

struct CVec4d {
  __m256d v;  ///< [re0, im0, re1, im1]

  static CVec4d load(const cplx* p) {
    return {_mm256_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(cplx* p) const {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  /// Both lanes set to the same complex value.
  static CVec4d bcast(cplx c) {
    return {_mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&c))};
  }
  /// Lane 0 = lo, lane 1 = hi.
  static CVec4d set(cplx lo, cplx hi) {
    return {_mm256_set_pd(hi.imag(), hi.real(), lo.imag(), lo.real())};
  }

  friend CVec4d operator+(CVec4d a, CVec4d b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  CVec4d rscale(double s) const {
    return {_mm256_mul_pd(v, _mm256_set1_pd(s))};
  }
  /// Each slot times the matching slot of \p f (real factors).
  CVec4d rmul(CVec4d f) const { return {_mm256_mul_pd(v, f.v)}; }
  /// this*s + b*t with real factors, fused per element.
  CVec4d rmix(double s, CVec4d b, double t) const {
    return {_mm256_fmadd_pd(b.v, _mm256_set1_pd(t),
                            _mm256_mul_pd(v, _mm256_set1_pd(s)))};
  }

  /// Lane-0 complex duplicated into both lanes.
  CVec4d dup_lo() const { return {_mm256_permute2f128_pd(v, v, 0x00)}; }
  /// Lane-1 complex duplicated into both lanes.
  CVec4d dup_hi() const { return {_mm256_permute2f128_pd(v, v, 0x11)}; }
  /// Lanes exchanged.
  CVec4d swap_lanes() const { return {_mm256_permute2f128_pd(v, v, 0x01)}; }
};

/// [a.lane0, b.lane1].
inline CVec4d concat_lo_hi(CVec4d a, CVec4d b) {
  return {_mm256_permute2f128_pd(a.v, b.v, 0x30)};
}
/// [a.lane1, b.lane0].
inline CVec4d concat_hi_lo(CVec4d a, CVec4d b) {
  return {_mm256_permute2f128_pd(a.v, b.v, 0x21)};
}
/// [a.lane0, b.lane0].
inline CVec4d concat_lo_lo(CVec4d a, CVec4d b) {
  return {_mm256_permute2f128_pd(a.v, b.v, 0x20)};
}
/// [a.lane1, b.lane1].
inline CVec4d concat_hi_hi(CVec4d a, CVec4d b) {
  return {_mm256_permute2f128_pd(a.v, b.v, 0x31)};
}

inline CSplit<CVec4d> csplit(CVec4d y) {
  return {{_mm256_movedup_pd(y.v)}, {_mm256_permute_pd(y.v, 0xF)}};
}

/// Complex product on both lanes via the fmaddsub recipe:
/// even slots a*c - b*d, odd slots b*c + a*d.
inline CVec4d cmul(CVec4d x, CSplit<CVec4d> y) {
  const __m256d xs = _mm256_permute_pd(x.v, 0x5);  // [b, a, b', a']
  return {_mm256_fmaddsub_pd(x.v, y.re.v, _mm256_mul_pd(xs, y.im.v))};
}
inline CVec4d cmul(CVec4d x, CVec4d y) { return cmul(x, csplit(y)); }

/// acc + x*y on both lanes.
inline CVec4d cfma(CVec4d acc, CVec4d x, CVec4d y) { return acc + cmul(x, y); }
#endif  // AVX2 + FMA

// ===========================================================================
// Width-8 complex vector: four complex doubles in a 512-bit register.
// Only defined in the AVX-512 translation unit (-mavx512f -mavx512dq; DQ
// supplies _mm512_broadcast_f64x2).
// ===========================================================================

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define CHARTER_SIMD_HAS_AVX512 1
#include <immintrin.h>

struct CVec8d {
  __m512d v;  ///< [re0, im0, re1, im1, re2, im2, re3, im3]

  static CVec8d load(const cplx* p) {
    return {_mm512_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(cplx* p) const {
    _mm512_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  /// All four lanes set to the same complex value.
  static CVec8d bcast(cplx c) {
    return {_mm512_broadcast_f64x2(
        _mm_loadu_pd(reinterpret_cast<const double*>(&c)))};
  }
  /// Lane k = ck (lane 0 lowest in memory).
  static CVec8d set4(cplx c0, cplx c1, cplx c2, cplx c3) {
    return {_mm512_set_pd(c3.imag(), c3.real(), c2.imag(), c2.real(),
                          c1.imag(), c1.real(), c0.imag(), c0.real())};
  }

  friend CVec8d operator+(CVec8d a, CVec8d b) {
    return {_mm512_add_pd(a.v, b.v)};
  }
  CVec8d rscale(double s) const {
    return {_mm512_mul_pd(v, _mm512_set1_pd(s))};
  }
  /// Each slot times the matching slot of \p f (real factors).
  CVec8d rmul(CVec8d f) const { return {_mm512_mul_pd(v, f.v)}; }
  /// this*s + b*t with real factors, fused per element.
  CVec8d rmix(double s, CVec8d b, double t) const {
    return {_mm512_fmadd_pd(b.v, _mm512_set1_pd(t),
                            _mm512_mul_pd(v, _mm512_set1_pd(s)))};
  }

  /// Arbitrary permutation of the four 128-bit complex lanes; \p imm selects
  /// source lane (imm >> (2k)) & 3 into destination lane k.
  template <int imm>
  CVec8d lanes() const {
    return {_mm512_shuffle_f64x2(v, v, imm)};
  }
};

inline CSplit<CVec8d> csplit(CVec8d y) {
  return {{_mm512_movedup_pd(y.v)}, {_mm512_permute_pd(y.v, 0xFF)}};
}

/// Complex product on all four lanes via the fmaddsub recipe:
/// even slots a*c - b*d, odd slots b*c + a*d.
inline CVec8d cmul(CVec8d x, CSplit<CVec8d> y) {
  const __m512d xs = _mm512_permute_pd(x.v, 0x55);  // [b, a, ...]
  return {_mm512_fmaddsub_pd(x.v, y.re.v, _mm512_mul_pd(xs, y.im.v))};
}
inline CVec8d cmul(CVec8d x, CVec8d y) { return cmul(x, csplit(y)); }

/// acc + x*y on all four lanes.
inline CVec8d cfma(CVec8d acc, CVec8d x, CVec8d y) { return acc + cmul(x, y); }
#endif  // AVX-512 F + DQ

}  // namespace charter::math::simd
