// SIMD layer contract tests (math/simd.hpp, math/simd_dispatch.hpp):
//
//  1. The scalar path is bit-identical to the pre-SIMD kernels.  Reference
//     copies of the historical loops live in this file (serial, verbatim
//     arithmetic); the scalar table must reproduce them exactly — double ==,
//     not a tolerance — for every kernel, every qubit position, and every
//     width 1..7.  The vec(rho) diagonal kernel (apply_diag_rowcol) must
//     reproduce the historical diagonal pair loops, whose reference copies
//     it is checked against at density-matrix widths 1..7 (2 to 14
//     pseudo-qubits).
//  2. Every available path agrees with scalar to <= 1e-12 in max-abs
//     amplitude difference over the same randomized sweep.
//  3. Each path is deterministic: repeating a kernel on the same input is
//     bit-identical (the vector paths mix register and fallback loops, so
//     this guards against any input-independent nondeterminism).
//  4. The dispatcher: scalar is always available, set_path round-trips, and
//     the active table matches the reported path.
//  5. Byte identity where the contract is exact: every density-matrix entry
//     of the AVX-512 table equals the AVX2 entry at density-matrix widths
//     1..8 on every qubit, depol2q_block equals its scalar reference on
//     every path, and the qft7 / adder9 exact tapes leave the same vec(rho)
//     on the avx2 and avx512 paths.  On every path, apply_diag_run equals
//     its k per-op diagonal calls at widths 1..16 for k = 1..16, and the
//     lane batch's sweep (lane_sweep) equals that path's per-op diagonal
//     calls interleaved with the historical damp, scale and sum loops, and
//     on damp-only op lists the scalar body.
//
// The sweep runs on the dispatch *table* functions directly, so it tests
// exactly what sim/kernels.hpp forwards to.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algos/registry.hpp"
#include "backend/backend.hpp"
#include "math/simd.hpp"
#include "math/simd_dispatch.hpp"
#include "noise/program.hpp"
#include "sim/density_matrix.hpp"
#include "util/rng.hpp"

namespace ms = charter::math::simd;
using charter::math::cplx;
using charter::math::Mat2;
using charter::util::Rng;

namespace {

// ---------------------------------------------------------------------------
// Reference kernels: the pre-SIMD scalar loops, inlined serially.
// ---------------------------------------------------------------------------

std::uint64_t insert0(std::uint64_t x, std::uint64_t m) {
  return ((x & ~(m - 1)) << 1) | (x & (m - 1));
}

void ref_apply_1q(cplx* a, std::uint64_t dim, int q, const Mat2& u) {
  const std::uint64_t stride = 1ULL << q;
  for (std::uint64_t p = 0; p < (dim >> 1); ++p) {
    const std::uint64_t i0 = insert0(p, stride);
    const std::uint64_t i1 = i0 | stride;
    const cplx a0 = a[i0];
    const cplx a1 = a[i1];
    a[i0] = u(0, 0) * a0 + u(0, 1) * a1;
    a[i1] = u(1, 0) * a0 + u(1, 1) * a1;
  }
}

void ref_apply_diag_1q(cplx* a, std::uint64_t dim, int q, cplx d0, cplx d1) {
  const std::uint64_t mask = 1ULL << q;
  for (std::uint64_t i = 0; i < dim; ++i) a[i] *= (i & mask) ? d1 : d0;
}

void ref_apply_x(cplx* a, std::uint64_t dim, int q) {
  const std::uint64_t stride = 1ULL << q;
  for (std::uint64_t p = 0; p < (dim >> 1); ++p) {
    const std::uint64_t i0 = insert0(p, stride);
    std::swap(a[i0], a[i0 | stride]);
  }
}

void ref_apply_cx(cplx* a, std::uint64_t dim, int c, int t) {
  const std::uint64_t cm = 1ULL << c;
  const std::uint64_t tm = 1ULL << t;
  for (std::uint64_t i = 0; i < (dim >> 1); ++i) {
    const std::uint64_t i0 = insert0(i, tm);
    if (i0 & cm) std::swap(a[i0], a[i0 | tm]);
  }
}

void ref_apply_diag_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                       const std::array<cplx, 4>& d) {
  const std::uint64_t am = 1ULL << qa;
  const std::uint64_t bm = 1ULL << qb;
  for (std::uint64_t i = 0; i < dim; ++i) {
    const unsigned idx = ((i & am) ? 1u : 0u) | ((i & bm) ? 2u : 0u);
    a[i] *= d[idx];
  }
}

void ref_apply_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                  const charter::math::Mat4& u) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, lo), hi);
    const std::uint64_t idx[4] = {base, base | amask, base | bmask,
                                  base | amask | bmask};
    cplx in[4];
    for (int k = 0; k < 4; ++k) in[k] = a[idx[k]];
    for (int r = 0; r < 4; ++r) {
      cplx acc = 0.0;
      for (int k = 0; k < 4; ++k)
        acc += u(static_cast<std::size_t>(r), static_cast<std::size_t>(k)) *
               in[k];
      a[idx[r]] = acc;
    }
  }
}

void ref_apply_1q_pair(cplx* a, std::uint64_t dim, int qa, const Mat2& ua,
                       int qb, const Mat2& ub) {
  const std::uint64_t am = 1ULL << qa;
  const std::uint64_t bm = 1ULL << qb;
  const std::uint64_t lo = am < bm ? am : bm;
  const std::uint64_t hi = am < bm ? bm : am;
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, lo), hi);
    const std::uint64_t i00 = base, i10 = base | am, i01 = base | bm,
                        i11 = base | am | bm;
    const cplx v00 = a[i00], v10 = a[i10], v01 = a[i01], v11 = a[i11];
    const cplx t00 = ua(0, 0) * v00 + ua(0, 1) * v10;
    const cplx t10 = ua(1, 0) * v00 + ua(1, 1) * v10;
    const cplx t01 = ua(0, 0) * v01 + ua(0, 1) * v11;
    const cplx t11 = ua(1, 0) * v01 + ua(1, 1) * v11;
    a[i00] = ub(0, 0) * t00 + ub(0, 1) * t01;
    a[i01] = ub(1, 0) * t00 + ub(1, 1) * t01;
    a[i10] = ub(0, 0) * t10 + ub(0, 1) * t11;
    a[i11] = ub(1, 0) * t10 + ub(1, 1) * t11;
  }
}

void ref_apply_diag_1q_pair(cplx* a, std::uint64_t dim, int qa, cplx a0,
                            cplx a1, int qb, cplx b0, cplx b1) {
  const std::uint64_t am = 1ULL << qa;
  const std::uint64_t bm = 1ULL << qb;
  for (std::uint64_t i = 0; i < dim; ++i) {
    cplx v = a[i];
    v *= (i & am) ? a1 : a0;
    v *= (i & bm) ? b1 : b0;
    a[i] = v;
  }
}

void ref_apply_diag_2q_pair(cplx* a, std::uint64_t dim, int qa, int qb,
                            const std::array<cplx, 4>& da, int qc, int qd,
                            const std::array<cplx, 4>& db) {
  const std::uint64_t am = 1ULL << qa, bm = 1ULL << qb;
  const std::uint64_t cm = 1ULL << qc, dm = 1ULL << qd;
  for (std::uint64_t i = 0; i < dim; ++i) {
    const unsigned ia = ((i & am) ? 1u : 0u) | ((i & bm) ? 2u : 0u);
    const unsigned ib = ((i & cm) ? 1u : 0u) | ((i & dm) ? 2u : 0u);
    cplx v = a[i];
    v *= da[ia];
    v *= db[ib];
    a[i] = v;
  }
}

void ref_apply_cx_pair(cplx* a, std::uint64_t dim, int c1, int t1, int c2,
                       int t2) {
  const std::uint64_t c1m = 1ULL << c1, t1m = 1ULL << t1;
  const std::uint64_t c2m = 1ULL << c2, t2m = 1ULL << t2;
  const std::uint64_t lo = t1m < t2m ? t1m : t2m;
  const std::uint64_t hi = t1m < t2m ? t2m : t1m;
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, lo), hi);
    if (base & c1m) {
      std::swap(a[base], a[base | t1m]);
      std::swap(a[base | t2m], a[base | t1m | t2m]);
    }
    if (base & c2m) {
      std::swap(a[base], a[base | t2m]);
      std::swap(a[base | t1m], a[base | t1m | t2m]);
    }
  }
}

void ref_thermal_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                       std::uint64_t col, double gamma, double keep) {
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, row), col);
    a[base] += gamma * a[base | row | col];
    a[base | row | col] *= (1.0 - gamma);
    a[base | col] *= keep;
    a[base | row] *= keep;
  }
}

void ref_depol1q_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                       std::uint64_t col, double mix, double coh) {
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, row), col);
    const cplx d0 = a[base], d1 = a[base | row | col];
    a[base] = (1.0 - mix) * d0 + mix * d1;
    a[base | row | col] = (1.0 - mix) * d1 + mix * d0;
    a[base | col] *= coh;
    a[base | row] *= coh;
  }
}

void ref_bitflip_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                       std::uint64_t col, double p) {
  for (std::uint64_t i = 0; i < (dim >> 2); ++i) {
    const std::uint64_t base = insert0(insert0(i, row), col);
    const cplx b00 = a[base], b01 = a[base | col], b10 = a[base | row],
               b11 = a[base | row | col];
    a[base] = (1.0 - p) * b00 + p * b11;
    a[base | row | col] = (1.0 - p) * b11 + p * b00;
    a[base | col] = (1.0 - p) * b01 + p * b10;
    a[base | row] = (1.0 - p) * b10 + p * b01;
  }
}

void ref_depol2q_block(cplx* a, std::uint64_t dim, std::uint64_t ra,
                       std::uint64_t rb, std::uint64_t ca, std::uint64_t cb,
                       double lambda) {
  std::array<std::uint64_t, 4> masks = {ra, rb, ca, cb};
  std::sort(masks.begin(), masks.end());
  for (std::uint64_t i = 0; i < (dim >> 4); ++i) {
    std::uint64_t base = i;
    for (const std::uint64_t m : masks) base = insert0(base, m);
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
  }
}

// The trajectory lane batch's historical no-jump thermal loops over `lanes`
// interleaved unravellings (amplitude i of lane t at a[i * lanes + t]):
// P(1) per lane, then K0 = diag(1, keep) on the set-bit amplitudes with
// the no-jump norm, and the write pass that damps and scales.
void ref_lane_p1(const cplx* a, std::uint64_t dim, int lanes,
                 std::uint64_t mask, double* p1) {
  for (int t = 0; t < lanes; ++t) p1[t] = 0.0;
  for (std::uint64_t i = 0; i < dim; ++i)
    if (i & mask)
      for (int t = 0; t < lanes; ++t) p1[t] += std::norm(a[i * lanes + t]);
}

void ref_lane_damp_norm(cplx* a, std::uint64_t dim, int lanes,
                        std::uint64_t mask, double keep, double* norm) {
  for (int t = 0; t < lanes; ++t) norm[t] = 0.0;
  for (std::uint64_t i = 0; i < dim; ++i)
    for (int t = 0; t < lanes; ++t) {
      if (i & mask) a[i * lanes + t] *= keep;
      norm[t] += std::norm(a[i * lanes + t]);
    }
}

// The historical no-jump write pass: K0 on the set-bit amplitudes, then
// each lane scaled by scale[t].
void ref_lane_damp_scale(cplx* a, std::uint64_t dim, int lanes,
                         std::uint64_t mask, double keep,
                         const double* scale) {
  for (std::uint64_t i = 0; i < dim; ++i)
    for (int t = 0; t < lanes; ++t) {
      cplx& v = a[i * lanes + t];
      if (i & mask) v *= keep;
      v *= scale[t];
    }
}

// ---------------------------------------------------------------------------
// Sweep machinery
// ---------------------------------------------------------------------------

std::vector<cplx> random_state(std::uint64_t dim, Rng& rng) {
  std::vector<cplx> a(dim);
  for (cplx& v : a) v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return a;
}

Mat2 random_mat2(Rng& rng) {
  Mat2 u;
  for (cplx& v : u.m)
    v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return u;
}

std::array<cplx, 4> random_diag4(Rng& rng) {
  std::array<cplx, 4> d;
  for (cplx& v : d)
    v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return d;
}

charter::math::Mat4 random_mat4(Rng& rng) {
  charter::math::Mat4 u;
  for (cplx& v : u.m)
    v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return u;
}

double max_abs_diff(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

bool bit_identical(std::span<const cplx> a, std::span<const cplx> b) {
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

/// Runs every kernel of \p table over all qubit positions at width \p n and
/// compares against the serial reference copies above via \p check, which
/// receives (reference_result, table_result, context_label).
template <typename Check>
void sweep_against_reference(const ms::KernelTable& table, int n, Rng& rng,
                             Check&& check) {
  const std::uint64_t dim = 1ULL << n;
  const auto fresh = [&] { return random_state(dim, rng); };
  const auto run = [&](const char* label, auto&& ref_fn, auto&& simd_fn) {
    std::vector<cplx> want = fresh();
    std::vector<cplx> got = want;
    ref_fn(want.data());
    simd_fn(got.data());
    check(want, got, label);
    // Determinism: re-running on the same input is bit-identical.
    std::vector<cplx> again = want;
    simd_fn(again.data());
    std::vector<cplx> again2 = want;
    simd_fn(again2.data());
    EXPECT_TRUE(bit_identical(again, again2)) << label << " nondeterministic";
  };

  for (int q = 0; q < n; ++q) {
    const Mat2 u = random_mat2(rng);
    const cplx d0(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    const cplx d1(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    run("apply_1q", [&](cplx* a) { ref_apply_1q(a, dim, q, u); },
        [&](cplx* a) { table.apply_1q(a, dim, q, u); });
    run("apply_diag_1q",
        [&](cplx* a) { ref_apply_diag_1q(a, dim, q, d0, d1); },
        [&](cplx* a) { table.apply_diag_1q(a, dim, q, d0, d1); });
    run("apply_x", [&](cplx* a) { ref_apply_x(a, dim, q); },
        [&](cplx* a) { table.apply_x(a, dim, q); });
  }

  for (int qa = 0; qa < n; ++qa) {
    for (int qb = 0; qb < n; ++qb) {
      if (qa == qb) continue;
      const Mat2 ua = random_mat2(rng), ub = random_mat2(rng);
      const std::array<cplx, 4> d = random_diag4(rng);
      run("apply_cx", [&](cplx* a) { ref_apply_cx(a, dim, qa, qb); },
          [&](cplx* a) { table.apply_cx(a, dim, qa, qb); });
      // Dense 4x4 (fused-wide tape op) — exercised at every (qa, qb)
      // ordering so the bit-0 operand and low-stride fallbacks are hit.
      if (n >= 2) {
        const charter::math::Mat4 u4 = random_mat4(rng);
        run("apply_2q", [&](cplx* a) { ref_apply_2q(a, dim, qa, qb, u4); },
            [&](cplx* a) { table.apply_2q(a, dim, qa, qb, u4); });
      }
      run("apply_diag_2q",
          [&](cplx* a) { ref_apply_diag_2q(a, dim, qa, qb, d); },
          [&](cplx* a) { table.apply_diag_2q(a, dim, qa, qb, d); });
      run("apply_1q_pair",
          [&](cplx* a) { ref_apply_1q_pair(a, dim, qa, ua, qb, ub); },
          [&](cplx* a) { table.apply_1q_pair(a, dim, qa, ua, qb, ub); });
      // Channel blocks: row < col per the vec(rho) layout contract.
      if (qa < qb) {
        const std::uint64_t row = 1ULL << qa;
        const std::uint64_t col = 1ULL << qb;
        const double gamma = rng.uniform(0.0, 0.9);
        const double keep = rng.uniform(0.1, 1.0);
        const double mix = rng.uniform(0.0, 0.5);
        const double coh = rng.uniform(0.2, 1.0);
        const double p = rng.uniform(0.0, 0.5);
        run("thermal_block",
            [&](cplx* a) { ref_thermal_block(a, dim, row, col, gamma, keep); },
            [&](cplx* a) {
              table.thermal_block(a, dim, row, col, gamma, keep);
            });
        run("depol1q_block",
            [&](cplx* a) { ref_depol1q_block(a, dim, row, col, mix, coh); },
            [&](cplx* a) { table.depol1q_block(a, dim, row, col, mix, coh); });
        run("bitflip_block",
            [&](cplx* a) { ref_bitflip_block(a, dim, row, col, p); },
            [&](cplx* a) { table.bitflip_block(a, dim, row, col, p); });
      }
    }
  }

  // CX pairs require two disjoint {control, target} sets.
  if (n >= 4) {
    for (int c1 = 0; c1 < n; ++c1)
      for (int t1 = 0; t1 < n; ++t1)
        for (int c2 = 0; c2 < n; ++c2)
          for (int t2 = 0; t2 < n; ++t2) {
            const bool distinct = c1 != t1 && c2 != t2 && c1 != c2 &&
                                  c1 != t2 && t1 != c2 && t1 != t2;
            if (!distinct) continue;
            run("apply_cx_pair",
                [&](cplx* a) { ref_apply_cx_pair(a, dim, c1, t1, c2, t2); },
                [&](cplx* a) { table.apply_cx_pair(a, dim, c1, t1, c2, t2); });
          }
  }

  // Kraus accumulation.
  {
    std::vector<cplx> acc = fresh(), src = fresh();
    std::vector<cplx> want = acc;
    for (std::uint64_t i = 0; i < dim; ++i) want[i] += src[i];
    table.accum_add(acc.data(), src.data(), dim);
    check(want, acc, "accum_add");
  }
}

/// Runs the vec(rho) diagonal kernel over every one-qubit and every ordered
/// two-qubit support of an m-qubit density matrix (2m pseudo-qubits; m = 1
/// makes each column a single AVX2 register) and compares against the
/// serial reference pair loops — diag(d) on the row pseudo-qubits, then
/// diag(conj(d)) on the column ones — via \p check.
template <typename Check>
void sweep_diag_rowcol(const ms::KernelTable& table, int m, Rng& rng,
                       Check&& check) {
  const std::uint64_t dim = 1ULL << (2 * m);
  const std::uint64_t len = 1ULL << m;
  // qb < 0: one-qubit diag(d[0], d[1]) on qa.
  const auto run = [&](int qa, int qb, const std::array<cplx, 4>& d) {
    const std::array<cplx, 4> dc = {std::conj(d[0]), std::conj(d[1]),
                                    std::conj(d[2]), std::conj(d[3])};
    const std::uint64_t am = 1ULL << qa;
    const std::uint64_t bm = qb < 0 ? 0 : 1ULL << qb;
    std::vector<cplx> row(len), col(len);
    for (std::uint64_t k = 0; k < len; ++k) {
      const unsigned idx = ((k & am) ? 1u : 0u) | ((k & bm) ? 2u : 0u);
      row[k] = d[idx];
      col[k] = dc[idx];
    }
    std::vector<cplx> want = random_state(dim, rng);
    const std::vector<cplx> input = want;
    if (qb < 0)
      ref_apply_diag_1q_pair(want.data(), dim, qa, d[0], d[1], qa + m, dc[0],
                             dc[1]);
    else
      ref_apply_diag_2q_pair(want.data(), dim, qa, qb, d, qa + m, qb + m, dc);
    std::vector<cplx> got = input;
    table.apply_diag_rowcol(got.data(), m, row.data(), col.data());
    const std::string label = "apply_diag_rowcol qa=" + std::to_string(qa) +
                              " qb=" + std::to_string(qb);
    check(want, got, label.c_str());
    std::vector<cplx> again = input;
    table.apply_diag_rowcol(again.data(), m, row.data(), col.data());
    EXPECT_TRUE(bit_identical(got, again)) << label << " nondeterministic";
  };
  for (int qa = 0; qa < m; ++qa) {
    const cplx d0(rng.uniform(-1.0, 1.0), 0.3), d1(0.1, rng.uniform());
    run(qa, -1, {d0, d1, d0, d1});
    for (int qb = 0; qb < m; ++qb)
      if (qb != qa) run(qa, qb, random_diag4(rng));
  }
}

/// Runs every density-matrix entry of two tables on the shapes the engine
/// runs for an m-qubit density matrix — each qubit q on pseudo-qubits
/// (q, q + m), every ordered CX and depol2q pair, a random diagonal — from
/// identical random inputs, and requires byte-identical results.
void expect_dm_entries_identical(const ms::KernelTable& x,
                                 const ms::KernelTable& y, int m, Rng& rng) {
  const std::uint64_t dim = 1ULL << (2 * m);
  const auto same = [&](const std::string& label, auto&& fn) {
    std::vector<cplx> a = random_state(dim, rng);
    std::vector<cplx> b = a;
    fn(x, a.data());
    fn(y, b.data());
    EXPECT_TRUE(bit_identical(a, b))
        << label << " " << x.name << " vs " << y.name << " m=" << m;
  };
  for (int q = 0; q < m; ++q) {
    const std::uint64_t row = 1ULL << q;
    const std::uint64_t col = 1ULL << (q + m);
    const Mat2 u = random_mat2(rng);
    Mat2 uc;
    for (std::size_t k = 0; k < 4; ++k) uc.m[k] = std::conj(u.m[k]);
    const double gamma = rng.uniform(0.0, 0.9);
    const double keep = rng.uniform(0.1, 1.0);
    const double mix = rng.uniform(0.0, 0.5);
    const double coh = rng.uniform(0.2, 1.0);
    const double p = rng.uniform(0.0, 0.5);
    const std::string at = " q=" + std::to_string(q);
    same("apply_1q_pair" + at, [&](const ms::KernelTable& t, cplx* a) {
      t.apply_1q_pair(a, dim, q, u, q + m, uc);
    });
    same("thermal_block" + at, [&](const ms::KernelTable& t, cplx* a) {
      t.thermal_block(a, dim, row, col, gamma, keep);
    });
    same("depol1q_block" + at, [&](const ms::KernelTable& t, cplx* a) {
      t.depol1q_block(a, dim, row, col, mix, coh);
    });
    same("bitflip_block" + at, [&](const ms::KernelTable& t, cplx* a) {
      t.bitflip_block(a, dim, row, col, p);
    });
    for (int r = 0; r < m; ++r) {
      if (r == q) continue;
      const std::string pair = at + " r=" + std::to_string(r);
      same("apply_cx_pair" + pair, [&](const ms::KernelTable& t, cplx* a) {
        t.apply_cx_pair(a, dim, q, r, q + m, r + m);
      });
      const double lambda = rng.uniform(0.0, 1.0);
      same("depol2q_block" + pair, [&](const ms::KernelTable& t, cplx* a) {
        t.depol2q_block(a, dim, row, 1ULL << r, col, 1ULL << (r + m),
                        lambda);
      });
    }
  }
  const std::uint64_t len = 1ULL << m;
  std::vector<cplx> row(len), col(len);
  for (std::uint64_t k = 0; k < len; ++k) {
    row[k] = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    col[k] = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
  same("apply_diag_rowcol", [&](const ms::KernelTable& t, cplx* a) {
    t.apply_diag_rowcol(a, m, row.data(), col.data());
  });
}

}  // namespace

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(ms::path_available(ms::SimdPath::kScalar));
  EXPECT_NE(ms::table_scalar(), nullptr);
  EXPECT_STREQ(ms::table_scalar()->name, "scalar");
}

TEST(SimdDispatch, SetPathRoundTrips) {
  const ms::SimdPath original = ms::active_path();
  for (const ms::SimdPath p : {ms::SimdPath::kScalar, ms::SimdPath::kWidth2,
                               ms::SimdPath::kAvx2, ms::SimdPath::kAvx512}) {
    if (!ms::path_available(p)) {
      EXPECT_FALSE(ms::set_path(p));
      continue;
    }
    EXPECT_TRUE(ms::set_path(p));
    EXPECT_EQ(ms::active_path(), p);
    EXPECT_STREQ(ms::active().name, ms::path_name(p));
  }
  EXPECT_TRUE(ms::set_path(original));
}

TEST(SimdDispatch, BestPathIsAvailableAndListed) {
  EXPECT_TRUE(ms::path_available(ms::best_path()));
  const std::string avail = ms::available_paths();
  EXPECT_NE(avail.find("scalar"), std::string::npos);
  EXPECT_NE(avail.find(ms::path_name(ms::best_path())), std::string::npos);
}

// The scalar table must reproduce the pre-SIMD kernels bit for bit: the
// golden fixtures and every historical result were produced by exactly this
// arithmetic.
TEST(SimdKernels, ScalarPathBitIdenticalToPreChangeKernels) {
  Rng rng(0xc0ffee);
  for (int n = 1; n <= 7; ++n) {
    sweep_against_reference(
        *ms::table_scalar(), n, rng,
        [&](const std::vector<cplx>& want, const std::vector<cplx>& got,
            const char* label) {
          ASSERT_TRUE(bit_identical(want, got))
              << label << " diverged from the pre-change kernels at n=" << n;
        });
  }
  for (int m = 1; m <= 7; ++m) {
    sweep_diag_rowcol(
        *ms::table_scalar(), m, rng,
        [&](const std::vector<cplx>& want, const std::vector<cplx>& got,
            const char* label) {
          ASSERT_TRUE(bit_identical(want, got))
              << label << " diverged from the pre-change pair loops at "
              << "density-matrix width " << m;
        });
  }
}

// Every vector path agrees with the reference (== scalar) to <= 1e-12 over
// the full op x position x width sweep.
TEST(SimdKernels, AllPathsAgreeWithinTolerance) {
  for (const ms::SimdPath p : {ms::SimdPath::kWidth2, ms::SimdPath::kAvx2,
                               ms::SimdPath::kAvx512}) {
    if (!ms::path_available(p)) {
      GTEST_LOG_(INFO) << "path " << ms::path_name(p)
                       << " unavailable; skipped";
      continue;
    }
    const ms::KernelTable* table = p == ms::SimdPath::kWidth2
                                       ? ms::table_width2()
                                       : p == ms::SimdPath::kAvx2
                                             ? ms::table_avx2()
                                             : ms::table_avx512();
    ASSERT_NE(table, nullptr);
    Rng rng(0x5eed + static_cast<std::uint64_t>(p));
    for (int n = 1; n <= 7; ++n) {
      sweep_against_reference(
          *table, n, rng,
          [&](const std::vector<cplx>& want, const std::vector<cplx>& got,
              const char* label) {
            ASSERT_LE(max_abs_diff(want, got), 1e-12)
                << label << " path=" << table->name << " n=" << n;
          });
    }
    for (int m = 1; m <= 7; ++m) {
      sweep_diag_rowcol(
          *table, m, rng,
          [&](const std::vector<cplx>& want, const std::vector<cplx>& got,
              const char* label) {
            ASSERT_LE(max_abs_diff(want, got), 1e-12)
                << label << " path=" << table->name
                << " density-matrix width " << m;
          });
    }
  }
}

// The AVX-512 density-matrix entries do the AVX2 entries' per-element
// arithmetic four groups to a register (two on qubits 0 and 1), and forward
// to AVX2 on the shapes they do not cover (n = 1), so every entry must
// match AVX2 byte for byte: the default path's output may not move.
TEST(SimdKernels, Avx512DensityMatrixEntriesMatchAvx2Bitwise) {
  if (!ms::path_available(ms::SimdPath::kAvx512) ||
      !ms::path_available(ms::SimdPath::kAvx2))
    GTEST_SKIP() << "needs both the avx2 and the avx512 path";
  Rng rng(0xa512);
  for (int m = 1; m <= 8; ++m)
    expect_dm_entries_identical(*ms::table_avx512(), *ms::table_avx2(), m,
                                rng);
}

// depol2q_block uses separate multiplies and adds in the scalar loop's order
// on every path, so each path equals the reference loop exactly, for every
// ordered pair of qubits including qubit 0.
TEST(SimdKernels, Depol2qBlockBitIdenticalToReferenceOnEveryPath) {
  const ms::SimdPath original = ms::active_path();
  for (const ms::SimdPath path : {ms::SimdPath::kScalar, ms::SimdPath::kWidth2,
                                  ms::SimdPath::kAvx2, ms::SimdPath::kAvx512}) {
    if (!ms::path_available(path)) continue;
    ASSERT_TRUE(ms::set_path(path));
    const ms::KernelTable& table = ms::active();
    Rng rng(0xde9 + static_cast<std::uint64_t>(path));
    for (int m = 2; m <= 6; ++m) {
      const std::uint64_t dim = 1ULL << (2 * m);
      for (int qa = 0; qa < m; ++qa)
        for (int qb = 0; qb < m; ++qb) {
          if (qa == qb) continue;
          const double lambda = rng.uniform(0.0, 1.0);
          const std::uint64_t ra = 1ULL << qa, rb = 1ULL << qb;
          std::vector<cplx> want = random_state(dim, rng);
          std::vector<cplx> got = want;
          ref_depol2q_block(want.data(), dim, ra, rb, ra << m, rb << m, lambda);
          table.depol2q_block(got.data(), dim, ra, rb, ra << m, rb << m,
                              lambda);
          EXPECT_TRUE(bit_identical(want, got))
              << "path=" << table.name << " m=" << m << " qa=" << qa
              << " qb=" << qb;
        }
    }
  }
  ms::set_path(original);
}

// apply_diag_run multiplies each element by every op's factor in order with
// the path's own complex multiply, so on every path it equals k per-op
// calls byte for byte: statevector widths 1..16, runs of k = 1..16 mixing
// one- and two-qubit ops, qubits 0 and 1 (the lane-gathered masks) included.
TEST(SimdKernels, DiagRunBitIdenticalToPerOpCallsOnEveryPath) {
  const ms::SimdPath original = ms::active_path();
  int checked = 0;
  for (const ms::SimdPath path : {ms::SimdPath::kScalar, ms::SimdPath::kWidth2,
                                  ms::SimdPath::kAvx2, ms::SimdPath::kAvx512}) {
    if (!ms::path_available(path)) continue;
    ASSERT_TRUE(ms::set_path(path));
    const ms::KernelTable& table = ms::active();
    Rng rng(0xd1a9 + static_cast<std::uint64_t>(path));
    for (int n = 1; n <= 16; ++n) {
      const std::uint64_t dim = 1ULL << n;
      // Half the operands on qubit 0 or 1, the rest anywhere.
      const auto qubit = [&] {
        return static_cast<int>(rng.uniform_int(2) == 0
                                    ? rng.uniform_int(n < 2 ? 1 : 2)
                                    : rng.uniform_int(n));
      };
      for (int k = 1; k <= charter::math::kMaxDiagRun; ++k) {
        std::vector<charter::math::DiagOp> ops;
        for (int j = 0; j < k; ++j) {
          const int qa = qubit();
          const std::array<cplx, 4> d = random_diag4(rng);
          if (n < 2 || rng.uniform_int(2) == 0) {
            ops.push_back({1ULL << qa, 0, {d[0], d[1], d[0], d[1]}});
            continue;
          }
          int qb = qubit();
          while (qb == qa) qb = static_cast<int>(rng.uniform_int(n));
          ops.push_back({1ULL << qa, 1ULL << qb, d});
        }
        std::vector<cplx> want = random_state(dim, rng);
        std::vector<cplx> got = want;
        for (const charter::math::DiagOp& op : ops) {
          const int qa = std::countr_zero(op.amask);
          if (op.bmask == 0)
            table.apply_diag_1q(want.data(), dim, qa, op.d[0], op.d[1]);
          else
            table.apply_diag_2q(want.data(), dim, qa,
                                std::countr_zero(op.bmask), op.d);
        }
        table.apply_diag_run(got.data(), dim, ops.data(), k);
        EXPECT_TRUE(bit_identical(want, got))
            << "path=" << table.name << " n=" << n << " k=" << k;
        ++checked;
      }
    }
  }
  ms::set_path(original);
  EXPECT_GE(checked, 16 * 16);
}

// The lane batch's sweep reproduces the separate passes it replaces byte
// for byte on every path: k = 0..16 mixed ops (diagonal ops, half their
// operands on qubits 0 and 1, and damp-and-scales), then, on most lists,
// a thermal op's sums, for 1, 2 and 4 lanes at widths 1..12.  The
// reference applies each diagonal op with that path's per-op kernel on the
// block (masks shifted by log2(lanes)), each damp-and-scale and the sums
// with the historical loops.  Lists without a diagonal op also match the
// scalar body on every path.
TEST(SimdKernels, LaneSweepBitIdenticalOnEveryPath) {
  const ms::KernelTable& scalar = *ms::table_scalar();
  const ms::SimdPath original = ms::active_path();
  int checked = 0;
  for (const ms::SimdPath path : {ms::SimdPath::kScalar, ms::SimdPath::kWidth2,
                                  ms::SimdPath::kAvx2, ms::SimdPath::kAvx512}) {
    if (!ms::set_path(path)) continue;
    const ms::KernelTable& table = ms::active();
    Rng rng(0x7e4a);
    for (const int lanes : {1, 2, 4})
      for (int n = 1; n <= 12; ++n)
        for (int k = 0; k <= charter::math::kMaxLaneOps; ++k) {
          const std::uint64_t dim = 1ULL << n;
          const int shift = lanes == 4 ? 2 : lanes == 2 ? 1 : 0;
          const auto qubit = [&] {
            return static_cast<int>(rng.uniform_int(2) == 0
                                        ? rng.uniform_int(n < 2 ? 1 : 2)
                                        : rng.uniform_int(n));
          };
          std::vector<charter::math::LaneOp> ops(static_cast<std::size_t>(k));
          bool any_diag = false;
          for (charter::math::LaneOp& op : ops) {
            const int qa = qubit();
            if (rng.uniform_int(3) == 0) {
              op.damp = true;
              op.mask = 1ULL << qa;
              op.keep = std::sqrt(1.0 - rng.uniform(0.01, 0.9));
              for (double& s : op.scale) s = rng.uniform(0.5, 2.0);
              continue;
            }
            any_diag = true;
            const std::array<cplx, 4> d = random_diag4(rng);
            if (n < 2 || rng.uniform_int(2) == 0) {
              op.diag = {1ULL << qa, 0, {d[0], d[1], d[0], d[1]}};
              continue;
            }
            int qb = qubit();
            while (qb == qa) qb = static_cast<int>(rng.uniform_int(n));
            op.diag = {1ULL << qa, 1ULL << qb, d};
          }
          const std::uint64_t sums_mask =
              rng.uniform_int(4) == 0 ? 0 : 1ULL << qubit();
          const double keep = std::sqrt(1.0 - rng.uniform(0.01, 0.9));
          const std::vector<cplx> input =
              random_state(dim * static_cast<std::uint64_t>(lanes), rng);
          const std::string where =
              std::string("path=") + table.name +
              " lanes=" + std::to_string(lanes) + " n=" + std::to_string(n) +
              " k=" + std::to_string(k) +
              " sums=" + std::to_string(sums_mask);

          std::vector<cplx> want = input;
          for (const charter::math::LaneOp& op : ops) {
            if (op.damp) {
              ref_lane_damp_scale(want.data(), dim, lanes, op.mask, op.keep,
                                  op.scale.data());
              continue;
            }
            const int qa = std::countr_zero(op.diag.amask) + shift;
            if (op.diag.bmask == 0)
              table.apply_diag_1q(want.data(), want.size(), qa, op.diag.d[0],
                                  op.diag.d[1]);
            else
              table.apply_diag_2q(want.data(), want.size(), qa,
                                  std::countr_zero(op.diag.bmask) + shift,
                                  op.diag.d);
          }
          double want_p1[4] = {}, want_norm[4] = {};
          if (sums_mask != 0) {
            ref_lane_p1(want.data(), dim, lanes, sums_mask, want_p1);
            std::vector<cplx> damped = want;
            ref_lane_damp_norm(damped.data(), dim, lanes, sums_mask, keep,
                               want_norm);
          }

          const auto sweep = [&](const ms::KernelTable& t, double* p1,
                                 double* norm) {
            std::vector<cplx> out = input;
            t.lane_sweep(out.data(), dim, lanes, ops.data(), k, sums_mask,
                         keep, p1, norm);
            return out;
          };
          double p1[4] = {}, norm[4] = {};
          const std::vector<cplx> got = sweep(table, p1, norm);
          const std::size_t bytes = sizeof(double) * lanes;
          EXPECT_TRUE(bit_identical(got, want)) << where;
          EXPECT_EQ(std::memcmp(p1, want_p1, bytes), 0) << where;
          EXPECT_EQ(std::memcmp(norm, want_norm, bytes), 0) << where;
          if (!any_diag) {
            double base_p1[4] = {}, base_norm[4] = {};
            EXPECT_TRUE(bit_identical(got, sweep(scalar, base_p1, base_norm)))
                << where;
            EXPECT_EQ(std::memcmp(p1, base_p1, bytes), 0) << where;
            EXPECT_EQ(std::memcmp(norm, base_norm, bytes), 0) << where;
          }
          ++checked;
        }
  }
  ms::set_path(original);
  EXPECT_GE(checked, 3 * 12 * 17);
}

// End to end on the benchmark circuits: the exact tapes of qft7 (lagos) and
// adder9 (guadalupe) leave a byte-identical vec(rho) on the avx2 and avx512
// paths.
TEST(SimdKernels, ExactTapesBitIdenticalOnAvx2AndAvx512) {
  if (!ms::path_available(ms::SimdPath::kAvx512) ||
      !ms::path_available(ms::SimdPath::kAvx2))
    GTEST_SKIP() << "needs both the avx2 and the avx512 path";
  const ms::SimdPath original = ms::active_path();
  for (const char* key : {"qft7", "adder9"}) {
    const charter::algos::AlgoSpec spec = charter::algos::find_benchmark(key);
    const charter::backend::FakeBackend dev =
        spec.qubits <= 7 ? charter::backend::FakeBackend::lagos()
                         : charter::backend::FakeBackend::guadalupe();
    const charter::backend::CompiledProgram program = dev.compile(spec.build());
    const charter::backend::LoweredRun lowered =
        dev.lower(program, charter::backend::RunOptions{});
    const charter::noise::NoiseProgram tape =
        charter::noise::lower(lowered.model, lowered.local);
    charter::math::AmpBuffer states[2];
    const ms::SimdPath paths[2] = {ms::SimdPath::kAvx2, ms::SimdPath::kAvx512};
    for (int k = 0; k < 2; ++k) {
      ASSERT_TRUE(ms::set_path(paths[k]));
      charter::sim::DensityMatrixEngine engine(lowered.local.num_qubits());
      tape.execute(engine);
      states[k] = engine.raw();
    }
    EXPECT_TRUE(bit_identical(states[0], states[1])) << key;
  }
  ms::set_path(original);
}
