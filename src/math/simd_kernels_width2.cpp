// Width-2 kernel path: one complex double per 128-bit vector — SSE2 on
// x86-64, NEON on aarch64, both baseline ISAs for their targets.  Loop
// structure and index math mirror the scalar path exactly; only the complex
// arithmetic moves into vector registers.  On SSE2 the cmul recipe performs
// the same operation sequence as std::complex multiplication, so this path
// usually matches scalar bit-for-bit; the tested contract is nevertheless
// the cross-path <= 1e-12 bound, not bit-identity.
//
// Pure permutation kernels (X, CX, the CX pair) carry no arithmetic, so
// they share the scalar implementations via table_scalar(), as does the
// two-qubit depolarizing block.

#include <bit>

#include "math/simd.hpp"
#include "math/simd_diag_run.hpp"
#include "util/parallel.hpp"

#if defined(CHARTER_SIMD_HAS_WIDTH2)

namespace charter::math::simd {

namespace {

void k_apply_1q(cplx* a, std::uint64_t dim, int q, const Mat2& u) {
  const std::uint64_t stride = 1ULL << q;
  const CVec2d u00 = CVec2d::from(u(0, 0)), u01 = CVec2d::from(u(0, 1));
  const CVec2d u10 = CVec2d::from(u(1, 0)), u11 = CVec2d::from(u(1, 1));
  util::parallel_for(static_cast<std::int64_t>(dim >> 1), [=](std::int64_t p) {
    const std::uint64_t up = static_cast<std::uint64_t>(p);
    const std::uint64_t i0 = insert_zero_bit(up, stride);
    const std::uint64_t i1 = i0 | stride;
    const CVec2d a0 = CVec2d::load(a + i0);
    const CVec2d a1 = CVec2d::load(a + i1);
    (cmul(a0, u00) + cmul(a1, u01)).store(a + i0);
    (cmul(a0, u10) + cmul(a1, u11)).store(a + i1);
  });
}

void k_apply_diag_1q(cplx* a, std::uint64_t dim, int q, cplx d0, cplx d1) {
  const std::uint64_t mask = 1ULL << q;
  const CVec2d v0 = CVec2d::from(d0), v1 = CVec2d::from(d1);
  util::parallel_for(static_cast<std::int64_t>(dim), [=](std::int64_t i) {
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    cmul(CVec2d::load(a + ui), (ui & mask) ? v1 : v0).store(a + ui);
  });
}

void k_apply_diag_2q(cplx* a, std::uint64_t dim, int qa, int qb,
                     const std::array<cplx, 4>& d) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  util::parallel_for(static_cast<std::int64_t>(dim), [=](std::int64_t i) {
    const std::uint64_t ui = static_cast<std::uint64_t>(i);
    const unsigned idx = ((ui & amask) ? 1u : 0u) | ((ui & bmask) ? 2u : 0u);
    cmul(CVec2d::load(a + ui), CVec2d::from(d[idx])).store(a + ui);
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
  diag_run<CVec2d, 1>(a, dim, ops, k);
}

void k_apply_2q(cplx* a, std::uint64_t dim, int qa, int qb, const Mat4& u) {
  const std::uint64_t amask = 1ULL << qa;
  const std::uint64_t bmask = 1ULL << qb;
  const std::uint64_t lo = amask < bmask ? amask : bmask;
  const std::uint64_t hi = amask < bmask ? bmask : amask;
  std::array<CVec2d, 16> um;
  for (int r = 0; r < 4; ++r)
    for (int k = 0; k < 4; ++k)
      um[static_cast<std::size_t>(r * 4 + k)] = CVec2d::from(u(r, k));
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i), lo);
    base = insert_zero_bit(base, hi);
    const std::uint64_t idx[4] = {base, base | amask, base | bmask,
                                  base | amask | bmask};
    CVec2d in[4];
    for (int k = 0; k < 4; ++k) in[k] = CVec2d::load(a + idx[k]);
    for (int r = 0; r < 4; ++r) {
      CVec2d acc = cmul(in[0], um[static_cast<std::size_t>(r * 4)]);
      for (int k = 1; k < 4; ++k)
        acc = acc + cmul(in[k], um[static_cast<std::size_t>(r * 4 + k)]);
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
  const CVec2d a00 = CVec2d::from(ua(0, 0)), a01 = CVec2d::from(ua(0, 1));
  const CVec2d a10 = CVec2d::from(ua(1, 0)), a11 = CVec2d::from(ua(1, 1));
  const CVec2d b00 = CVec2d::from(ub(0, 0)), b01 = CVec2d::from(ub(0, 1));
  const CVec2d b10 = CVec2d::from(ub(1, 0)), b11 = CVec2d::from(ub(1, 1));
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i), lo);
    base = insert_zero_bit(base, hi);
    const std::uint64_t i00 = base;
    const std::uint64_t i10 = base | amask;
    const std::uint64_t i01 = base | bmask;
    const std::uint64_t i11 = base | amask | bmask;
    const CVec2d v00 = CVec2d::load(a + i00), v10 = CVec2d::load(a + i10);
    const CVec2d v01 = CVec2d::load(a + i01), v11 = CVec2d::load(a + i11);
    const CVec2d t00 = cmul(v00, a00) + cmul(v10, a01);
    const CVec2d t10 = cmul(v00, a10) + cmul(v10, a11);
    const CVec2d t01 = cmul(v01, a00) + cmul(v11, a01);
    const CVec2d t11 = cmul(v01, a10) + cmul(v11, a11);
    (cmul(t00, b00) + cmul(t01, b01)).store(a + i00);
    (cmul(t00, b10) + cmul(t01, b11)).store(a + i01);
    (cmul(t10, b00) + cmul(t11, b01)).store(a + i10);
    (cmul(t10, b10) + cmul(t11, b11)).store(a + i11);
  });
}

void k_apply_diag_rowcol(cplx* a, int n, const cplx* row, const cplx* col) {
  // Row factor first, then column factor: the two multiplies of two
  // apply_diag passes, so this path stays bit-identical to that form.
  const std::uint64_t len = 1ULL << n;
  util::parallel_for(
      static_cast<std::int64_t>(len),
      [=](std::int64_t c) {
        cplx* seg = a + (static_cast<std::uint64_t>(c) << n);
        const CVec2d f = CVec2d::load(col + c);
        for (std::uint64_t r = 0; r < len; ++r)
          cmul(cmul(CVec2d::load(seg + r), CVec2d::load(row + r)), f)
              .store(seg + r);
      },
      /*grain=*/32);
}

void k_thermal_block(cplx* a, std::uint64_t dim, std::uint64_t row,
                     std::uint64_t col, double gamma, double keep) {
  util::parallel_for(static_cast<std::int64_t>(dim >> 2), [=](std::int64_t i) {
    std::uint64_t base = insert_zero_bit(static_cast<std::uint64_t>(i), row);
    base = insert_zero_bit(base, col);
    const std::uint64_t i00 = base;
    const std::uint64_t i10 = base | row;
    const std::uint64_t i01 = base | col;
    const std::uint64_t i11 = base | row | col;
    const CVec2d v11 = CVec2d::load(a + i11);
    (CVec2d::load(a + i00) + v11.rscale(gamma)).store(a + i00);
    v11.rscale(1.0 - gamma).store(a + i11);
    CVec2d::load(a + i01).rscale(keep).store(a + i01);
    CVec2d::load(a + i10).rscale(keep).store(a + i10);
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
    const CVec2d d0 = CVec2d::load(a + i00), d1 = CVec2d::load(a + i11);
    (d0.rscale(1.0 - mix) + d1.rscale(mix)).store(a + i00);
    (d1.rscale(1.0 - mix) + d0.rscale(mix)).store(a + i11);
    CVec2d::load(a + i01).rscale(coh).store(a + i01);
    CVec2d::load(a + i10).rscale(coh).store(a + i10);
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
    const CVec2d b00 = CVec2d::load(a + i00), b01 = CVec2d::load(a + i01);
    const CVec2d b10 = CVec2d::load(a + i10), b11 = CVec2d::load(a + i11);
    (b00.rscale(1.0 - p) + b11.rscale(p)).store(a + i00);
    (b11.rscale(1.0 - p) + b00.rscale(p)).store(a + i11);
    (b01.rscale(1.0 - p) + b10.rscale(p)).store(a + i01);
    (b10.rscale(1.0 - p) + b01.rscale(p)).store(a + i10);
  });
}

void k_accum_add(cplx* acc, const cplx* src, std::uint64_t n) {
  util::parallel_for(static_cast<std::int64_t>(n), [=](std::int64_t i) {
    (CVec2d::load(acc + i) + CVec2d::load(src + i)).store(acc + i);
  });
}

#if defined(__SSE2__)
constexpr const char* kWidth2Name = "sse2";
#else
constexpr const char* kWidth2Name = "neon";
#endif

const KernelTable kWidth2Table = {
    .name = kWidth2Name,
    .apply_1q = k_apply_1q,
    .apply_diag_1q = k_apply_diag_1q,
    .apply_x = nullptr,   // patched from the scalar table below
    .apply_cx = nullptr,  // (pure permutations, no arithmetic)
    .apply_diag_2q = k_apply_diag_2q,
    .apply_2q = k_apply_2q,
    .apply_diag_run = k_apply_diag_run,
    .apply_1q_pair = k_apply_1q_pair,
    .apply_cx_pair = nullptr,
    .apply_diag_rowcol = k_apply_diag_rowcol,
    .thermal_block = k_thermal_block,
    .depol1q_block = k_depol1q_block,
    .bitflip_block = k_bitflip_block,
    .depol2q_block = nullptr,
    .accum_add = k_accum_add,
};

const KernelTable* build_table() {
  static KernelTable table = [] {
    KernelTable t = kWidth2Table;
    const KernelTable* s = table_scalar();
    t.apply_x = s->apply_x;
    t.apply_cx = s->apply_cx;
    t.apply_cx_pair = s->apply_cx_pair;
    t.depol2q_block = s->depol2q_block;
    return t;
  }();
  return &table;
}

}  // namespace

const KernelTable* table_width2() { return build_table(); }

}  // namespace charter::math::simd

#else  // !CHARTER_SIMD_HAS_WIDTH2

namespace charter::math::simd {
const KernelTable* table_width2() { return nullptr; }
}  // namespace charter::math::simd

#endif
