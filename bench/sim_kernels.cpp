// Benchmark of the hot simulation kernels and the NoiseProgram tape
// pipeline, now with per-ISA rows for the SIMD dispatch layer:
//
//  1. simd[]: for each of the dense kernels (1q unitary, fused 1q pair,
//     CX pair, the vec(rho) row x column diagonal kernel carrying a 1q
//     phase and a static-ZZ 2q phase, and the thermal and two-qubit
//     depolarizing channel blocks on qubit 0 and on a qubit >= 2) the
//     scalar path is timed against the
//     process-active path (best available by default; a CHARTER_SIMD pin
//     is honored so CI's per-path legs record honest rows) on the same
//     vec(rho)-sized state, the speedup is reported, and scalar/SIMD
//     agreement <= 1e-12 is *asserted* — every bench run doubles as an
//     equivalence check on real workload shapes.
//  2. The fused pair kernels vs. the sequential two-pass forms they
//     replaced (on the active path).
//  3. diag_run[]: runs of k = 1..8 diagonal ops on a 16-pseudo-qubit
//     statevector block (the 4-lane trajectory block at n = 14, qubits
//     shifted up by 2, plus ops on bits 0 and 1), one apply_diag_run call
//     against k per-op calls on the active path.  The two must agree byte
//     for byte; any mismatch exits 1.
//  4. lane_thermal[]: the no-jump thermal op of the trajectory lane batch
//     on a 4-lane block at n = 14, serial (util::SerialKernels), on every
//     available path: the historical three passes (P(1); damp + norm;
//     scale), copied below, against two lane_sweep passes (its sums-only
//     form, then its one-damp-op form).  P(1), the norm and the block must
//     agree byte for byte; any mismatch exits 1.
//  5. lane_sweep[]: the lane batch's deferred ops on the same block, every
//     available path, one lane_sweep pass against the separate passes it
//     replaces, for three shapes: a damp-and-scale then the next thermal
//     op's sums, a diagonal op then the sums, and a damp-and-scale then a
//     three-op diagonal run without sums.  The separate form runs each op
//     kind on its own (diagonal runs through apply_diag_run on the shifted
//     block).  The block, P(1) and the norm must agree byte for byte; any
//     mismatch exits 1.
//  6. dm_align[]: the density-matrix kernels (diag rowcol, CX pair, 1q
//     pair, thermal and two-qubit depolarizing blocks) at n = 7, 8 and 9,
//     serial, on every available path, once on a 64-byte-aligned vec(rho)
//     (an engine's math::AmpBuffer) and once on a 16-mod-64 one.  The two
//     must agree byte for byte; any mismatch exits 1.
//  7. sampling[]: sim::sample_counts against the historical loop (one
//     uniform() and one std::upper_bound per shot), copied below, at 8, 32,
//     128, 512 and 16384 outcomes with 8192 shots.  The counts and the
//     next draw of the Rng must agree; any mismatch exits 1.
//  8. Exact-tape end-to-end execution on the density-matrix engine.
//
// Emits JSON (like bench_exec_batching) so the perf trajectory can be
// tracked across commits; CI uploads the --smoke output as the
// BENCH_kernels.json artifact and tools/check_bench_trend.py validates the
// metric keys.
//
// Usage: bench_sim_kernels [--qubits N] [--rounds N] [--reps N] [--smoke]
//                          [--out PATH]

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "math/amp_buffer.hpp"
#include "math/simd_dispatch.hpp"
#include "noise/calibration.hpp"
#include "noise/program.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernels.hpp"
#include "sim/measurement.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cc = charter::circ;
namespace cn = charter::noise;
namespace cs = charter::sim;
namespace simd = charter::math::simd;
using charter::math::cplx;
using charter::math::Mat2;

namespace {

/// Transpiled-shape workload: u3-style RZ-SX-RZ-SX-RZ runs interleaved with
/// CX ladders — the gate mix the analyzer's reversed circuits execute.
cc::Circuit workload(int qubits, int rounds) {
  cc::Circuit c(qubits);
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < qubits; ++q) {
      c.rz(q, 0.3 + 0.01 * q).sx(q).rz(q, 1.1 - 0.02 * r).sx(q).rz(q, -0.7);
    }
    for (int q = 0; q + 1 < qubits; ++q) c.cx(q, q + 1);
  }
  return c;
}

cn::NoiseModel line_model(int qubits) {
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < qubits; ++q) edges.emplace_back(q, q + 1);
  return cn::generate_calibration(qubits, edges, /*seed=*/2022);
}

/// Best-of-\p reps wall-clock of \p fn in seconds.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    charter::util::Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

double max_abs_diff(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

std::vector<cplx> random_state(std::uint64_t dim, std::uint64_t seed) {
  charter::util::Rng rng(seed);
  std::vector<cplx> a(dim);
  double norm = 0.0;
  for (cplx& v : a) {
    v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    norm += std::norm(v);
  }
  const double inv = 1.0 / std::sqrt(norm);
  for (cplx& v : a) v *= inv;
  return a;
}

/// One scalar-vs-best row: times `rounds` applications of \p kernel per rep
/// on each path, asserts <= 1e-12 single-application agreement, and appends
/// the JSON row.  Returns the speedup (or exits on divergence).
struct RowResult {
  double scalar_ms = 0.0;
  double best_ms = 0.0;
  double speedup = 0.0;
  double diff = 0.0;
};

template <typename Kernel>
RowResult bench_kernel_row(std::string& json, bool& first_row,
                           simd::SimdPath best, const char* name,
                           const std::vector<cplx>& input, int rounds,
                           int reps, Kernel&& kernel) {
  RowResult row;

  // Agreement: one application per path from the identical input.
  std::vector<cplx> scalar_out = input;
  simd::set_path(simd::SimdPath::kScalar);
  kernel(scalar_out.data());
  std::vector<cplx> best_out = input;
  simd::set_path(best);
  kernel(best_out.data());
  row.diff = max_abs_diff(scalar_out, best_out);

  // Timings: `rounds` applications per rep, best-of-`reps`.
  std::vector<cplx> state = input;
  simd::set_path(simd::SimdPath::kScalar);
  row.scalar_ms = 1e3 * best_seconds(reps, [&] {
                    for (int r = 0; r < rounds; ++r) kernel(state.data());
                  });
  state = input;
  simd::set_path(best);
  row.best_ms = 1e3 * best_seconds(reps, [&] {
                  for (int r = 0; r < rounds; ++r) kernel(state.data());
                });
  row.speedup = row.best_ms > 0.0 ? row.scalar_ms / row.best_ms : 0.0;

  if (!first_row) json += ",\n";
  first_row = false;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"kernel\": \"%s\", \"scalar_ms\": %.4f, "
                "\"best_ms\": %.4f, \"speedup\": %.3f, "
                "\"max_abs_diff\": %.3e}",
                name, row.scalar_ms, row.best_ms, row.speedup, row.diff);
  json += buf;

  if (!(row.diff <= 1e-12)) {
    std::fprintf(stderr, "FAIL: %s scalar/%s diverged (%.3e > 1e-12)\n",
                 name, simd::path_name(best), row.diff);
    std::exit(1);
  }
  return row;
}

/// Lanes, width and qubit of the lane_thermal rows.
constexpr int kLanes = 4;
constexpr int kLaneQubits = 14;
constexpr int kLaneQubit = 5;

/// The lane batch's historical no-jump thermal op on a kLanes-lane block
/// of \p dim amplitudes per lane: a half-block pass for P(1), a pass that
/// damps the set-bit amplitudes and sums the norm, and a scale pass.
void three_pass_thermal(cplx* a, std::uint64_t dim, std::uint64_t mask,
                        double keep, double* p1, double* norm) {
  constexpr int L = kLanes;
  std::fill(p1, p1 + L, 0.0);
  std::fill(norm, norm + L, 0.0);
  for (std::uint64_t base = mask; base < dim; base += 2 * mask) {
    const cplx* x = a + base * L;
    for (std::uint64_t i = 0; i < mask * L; i += L)
      for (int t = 0; t < L; ++t) p1[t] += std::norm(x[i + t]);
  }
  for (std::uint64_t base = 0; base < dim; base += 2 * mask) {
    const cplx* clear = a + base * L;
    for (std::uint64_t i = 0; i < mask * L; i += L)
      for (int t = 0; t < L; ++t) norm[t] += std::norm(clear[i + t]);
    cplx* set = a + (base + mask) * L;
    for (std::uint64_t i = 0; i < mask * L; i += L)
      for (int t = 0; t < L; ++t) {
        set[i + t] *= keep;
        norm[t] += std::norm(set[i + t]);
      }
  }
  double scale[L];
  for (int t = 0; t < L; ++t) scale[t] = 1.0 / std::sqrt(norm[t]);
  for (std::uint64_t i = 0; i < dim * L; i += L)
    for (int t = 0; t < L; ++t) a[i + t] *= scale[t];
}

/// The no-jump damp-and-scale of \p mask with the scales 1/sqrt(norm).
charter::math::LaneOp damp_op(std::uint64_t mask, double keep,
                              const double* norm) {
  charter::math::LaneOp op{.damp = true, .mask = mask, .keep = keep};
  for (int t = 0; t < kLanes; ++t) op.scale[t] = 1.0 / std::sqrt(norm[t]);
  return op;
}

/// The same op as two lane_sweep passes of the active path: the sums
/// alone, then the damp-and-scale alone.
void two_pass_thermal(cplx* a, std::uint64_t dim, std::uint64_t mask,
                      double keep, double* p1, double* norm) {
  cs::kernels::lane_sweep(a, dim, kLanes, nullptr, 0, mask, keep, p1, norm);
  const charter::math::LaneOp op = damp_op(mask, keep, norm);
  cs::kernels::lane_sweep(a, dim, kLanes, &op, 1, 0, 0.0, nullptr, nullptr);
}

/// One lane_sweep row shape: deferred ops, then the sums of \p sums_mask
/// (0: none).
struct SweepShape {
  const char* name;
  std::vector<charter::math::LaneOp> ops;
  std::uint64_t sums_mask;
};

/// The shape's ops as separate passes: each maximal run of diagonal ops as
/// one apply_diag_run call on the block (masks shifted by log2(kLanes)),
/// each damp-and-scale as a one-op lane_sweep, then the sums alone.
void separate_passes(cplx* a, std::uint64_t dim, const SweepShape& shape,
                     double keep, double* p1, double* norm) {
  const std::vector<charter::math::LaneOp>& ops = shape.ops;
  for (std::size_t j = 0; j < ops.size();) {
    if (ops[j].damp) {
      cs::kernels::lane_sweep(a, dim, kLanes, &ops[j], 1, 0, 0.0, nullptr,
                              nullptr);
      ++j;
      continue;
    }
    charter::math::DiagOp run[charter::math::kMaxDiagRun];
    int k = 0;
    for (; j < ops.size() && !ops[j].damp; ++j, ++k) {
      run[k] = ops[j].diag;
      run[k].amask *= kLanes;
      run[k].bmask *= kLanes;
    }
    cs::kernels::apply_diag_run(a, dim * kLanes, run, k);
  }
  if (shape.sums_mask != 0)
    cs::kernels::lane_sweep(a, dim, kLanes, nullptr, 0, shape.sums_mask, keep,
                            p1, norm);
}

/// The shape's ops and sums as one lane_sweep pass.
void one_sweep(cplx* a, std::uint64_t dim, const SweepShape& shape,
               double keep, double* p1, double* norm) {
  cs::kernels::lane_sweep(a, dim, kLanes, shape.ops.data(),
                          static_cast<int>(shape.ops.size()), shape.sums_mask,
                          keep, p1, norm);
}

/// Kernels of the dm_align rows, each in its density-matrix engine form at
/// width \p n: a static-ZZ diagonal through its factor tables \p row /
/// \p col, a CX pair, an SX pair, thermal relaxation and the two-qubit
/// depolarizing block, on the middle row qubit and its neighbour.
constexpr const char* kAlignKernels[] = {"diag_rowcol", "cx_pair",
                                         "unitary_1q_pair", "thermal_block",
                                         "depol2q_block"};

void dm_align_kernel(int kernel, cplx* a, int n, const cplx* row,
                     const cplx* col, const Mat2& u, const Mat2& v) {
  const std::uint64_t dim = 1ULL << (2 * n);
  const int qa = n / 2;
  const int qb = qa + n;
  switch (kernel) {
    case 0:
      cs::kernels::apply_diag_rowcol(a, n, row, col);
      return;
    case 1:
      cs::kernels::apply_cx_pair(a, dim, qa, qa + 1, qb, qb + 1);
      return;
    case 2:
      cs::kernels::apply_1q_pair(a, dim, qa, u, qb, v);
      return;
    case 3:
      simd::active().thermal_block(a, dim, 1ULL << qa, 1ULL << qb, 0.01, 0.98);
      return;
    default:
      simd::active().depol2q_block(a, dim, 1ULL << qa, 1ULL << (qa + 1),
                                   1ULL << qb, 1ULL << (qb + 1), 0.01);
      return;
  }
}

/// The historical shot sampler: one uniform() and one upper_bound per shot.
std::vector<std::uint64_t> upper_bound_counts(const std::vector<double>& probs,
                                              std::uint64_t shots,
                                              charter::util::Rng& rng) {
  std::vector<double> cdf(probs.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += std::max(0.0, probs[i]);
    cdf[i] = acc;
  }
  std::vector<std::uint64_t> counts(probs.size(), 0);
  for (std::uint64_t s = 0; s < shots; ++s) {
    const double u = rng.uniform() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    const std::size_t idx = std::min(
        static_cast<std::size_t>(it - cdf.begin()), probs.size() - 1);
    ++counts[idx];
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  charter::util::Cli cli(
      "bench_sim_kernels: per-ISA kernel rows, pair kernels, and exact "
      "tape execution");
  cli.add_flag("qubits", std::int64_t{8}, "density-matrix width");
  cli.add_flag("rounds", std::int64_t{12}, "workload rounds (depth scale)");
  cli.add_flag("reps", std::int64_t{5}, "timed repetitions (best-of)");
  cli.add_flag("smoke", false, "tiny sizes for CI; asserts agreement bound");
  cli.add_flag("out", std::string("bench_results/sim_kernels.json"),
               "JSON output path ('' = stdout only)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_bool("smoke");
  const int qubits = smoke ? 5 : static_cast<int>(cli.get_int("qubits"));
  const int rounds = smoke ? 4 : static_cast<int>(cli.get_int("rounds"));
  const int reps = smoke ? 2 : static_cast<int>(cli.get_int("reps"));

  // Compare scalar against the *process-active* path, not the widest one:
  // a CHARTER_SIMD-pinned CI leg must benchmark (and record) the path it
  // was pinned to, so every dispatch path gets honest trend rows.
  const simd::SimdPath original_path = simd::active_path();
  const simd::SimdPath best = original_path;

  // ---- per-ISA kernel rows: scalar vs best-available ---------------------
  // All rows run on a vec(rho)-sized state (2*qubits pseudo-qubits) at the
  // qubit positions the density-matrix pair kernels actually use.
  const int pseudo_qubits = 2 * qubits;
  const std::uint64_t dim = 1ULL << pseudo_qubits;
  const std::vector<cplx> input = random_state(dim, /*seed=*/2022);
  const int qa = qubits / 2;
  const int qb = qubits / 2 + qubits;
  const Mat2 u = cc::gate_unitary_1q(cc::make_gate(cc::GateKind::SX, {0}));
  Mat2 v;
  for (std::size_t k = 0; k < 4; ++k) v.m[k] = std::conj(u.m[k]);
  const cplx ph0 = std::exp(cplx(0.0, -0.4));
  const cplx ph1 = std::exp(cplx(0.0, 0.4));
  const int kernel_rounds = smoke ? 4 : 16;

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"sim_kernels\",\n";
  json += "  \"qubits\": " + std::to_string(qubits) + ",\n";
  json += std::string("  \"simd_active\": \"") + simd::path_name(best) +
          "\",\n";
  json += "  \"simd_available\": \"" + simd::available_paths() + "\",\n";
  json += "  \"simd\": [\n";

  bool first_row = true;
  const RowResult r_1q = bench_kernel_row(
      json, first_row, best, "unitary_1q", input, kernel_rounds, reps,
      [&](cplx* a) { cs::kernels::apply_1q(a, dim, qa, u); });
  const RowResult r_pair = bench_kernel_row(
      json, first_row, best, "unitary_1q_pair", input, kernel_rounds, reps,
      [&](cplx* a) { cs::kernels::apply_1q_pair(a, dim, qa, u, qb, v); });
  const RowResult r_cx = bench_kernel_row(
      json, first_row, best, "cx_pair", input, kernel_rounds, reps, [&](cplx* a) {
        cs::kernels::apply_cx_pair(a, dim, qa, qa + 1, qb, qb + 1);
      });
  // Diagonal phases on vec(rho): an RZ-style phase on row qubit qa, and the
  // static-ZZ phase exp(-i theta/2 Z(x)Z) on (qa, qa + 1) — the measured
  // density-matrix hotspot.  Both run the row x column kernel on the
  // factor tables the density-matrix engine builds per op.
  const std::uint64_t len = 1ULL << qubits;
  std::vector<cplx> row1(len), col1(len), row2(len), col2(len);
  cs::kernels::fill_diag_tables(qubits, {ph0, ph1, ph0, ph1}, 1ULL << qa, 0,
                                row1.data(), col1.data());
  const cplx zz_even = std::exp(cplx(0.0, -0.01));
  const cplx zz_odd = std::exp(cplx(0.0, 0.01));
  cs::kernels::fill_diag_tables(
      qubits, {zz_even, zz_odd, zz_odd, zz_even}, 1ULL << qa,
      1ULL << ((qa + 1) % qubits), row2.data(), col2.data());
  const RowResult r_diag = bench_kernel_row(
      json, first_row, best, "diag_1q_pair", input, kernel_rounds, reps,
      [&](cplx* a) {
        cs::kernels::apply_diag_rowcol(a, qubits, row1.data(), col1.data());
      });
  const RowResult r_zz = bench_kernel_row(
      json, first_row, best, "diag_2q_pair", input, kernel_rounds, reps,
      [&](cplx* a) {
        cs::kernels::apply_diag_rowcol(a, qubits, row2.data(), col2.data());
      });
  // Channel blocks on vec(rho): thermal relaxation on one qubit and the
  // two-qubit depolarizing block on a neighbour pair, each once on qubits
  // >= 2 (four groups per AVX-512 register) and once on qubit 0 (the
  // in-register lane layout, or the scalar loop for depol2q).
  const auto thermal = [&](int q) {
    return [&, q](cplx* a) {
      simd::active().thermal_block(a, dim, 1ULL << q, 1ULL << (q + qubits),
                                   0.01, 0.98);
    };
  };
  const auto depol2q = [&](int q) {
    return [&, q](cplx* a) {
      simd::active().depol2q_block(a, dim, 1ULL << q, 1ULL << (q + 1),
                                   1ULL << (q + qubits),
                                   1ULL << (q + 1 + qubits), 0.01);
    };
  };
  const RowResult r_thermal =
      bench_kernel_row(json, first_row, best, "thermal_block", input,
                       kernel_rounds, reps, thermal(qa));
  bench_kernel_row(json, first_row, best, "thermal_block_q0", input,
                   kernel_rounds, reps, thermal(0));
  const RowResult r_depol2q =
      bench_kernel_row(json, first_row, best, "depol2q_block", input,
                       kernel_rounds, reps, depol2q(qa));
  bench_kernel_row(json, first_row, best, "depol2q_block_q0", input,
                   kernel_rounds, reps, depol2q(0));
  json += "\n  ],\n";
  (void)r_1q;
  (void)r_diag;

  // ---- diagonal runs: one sweep vs. k per-op calls (active path) --------
  json += "  \"diag_run\": [\n";
  double run_speedup_4 = 0.0;
  {
    // Serial, as on the exec pool workers that run lane batches.
    const charter::util::SerialKernels serial;
    constexpr int kRunQubits = 16;
    const std::uint64_t run_dim = 1ULL << kRunQubits;
    const std::vector<cplx> run_input = random_state(run_dim, /*seed=*/7);
    std::vector<charter::math::DiagOp> ops;
    for (int j = 0; j < 8; ++j) {
      // ZZ-style phases on lane-shifted qubit pairs, RZ-style phases on
      // single qubits; op 3 sits on bit 0 and op 5 on bits 1 and 7.
      const int qa = j == 3 ? 0 : j == 5 ? 1 : 2 + (3 * j) % 14;
      const int qb = j == 5 ? 7 : 2 + (3 * j + 5) % 14;
      const cplx e0 = std::exp(cplx(0.0, 0.1 * (j + 1)));
      const cplx e1 = std::exp(cplx(0.0, -0.2 * (j + 1)));
      if (j % 2 == 1)
        ops.push_back({1ULL << qa, 1ULL << qb, {e0, e1, e1, e0}});
      else
        ops.push_back({1ULL << qa, 0, {e0, e1, e0, e1}});
    }
    const auto per_op = [&](cplx* a, int k) {
      for (int j = 0; j < k; ++j) {
        const charter::math::DiagOp& op = ops[static_cast<std::size_t>(j)];
        const int qa = std::countr_zero(op.amask);
        if (op.bmask == 0)
          cs::kernels::apply_diag_1q(a, run_dim, qa, op.d[0], op.d[1]);
        else
          cs::kernels::apply_diag_2q(a, run_dim, qa,
                                     std::countr_zero(op.bmask), op.d);
      }
    };
    std::vector<cplx> work = run_input;
    for (int k = 1; k <= 8; ++k) {
      std::vector<cplx> want = run_input;
      std::vector<cplx> got = run_input;
      per_op(want.data(), k);
      cs::kernels::apply_diag_run(got.data(), run_dim, ops.data(), k);
      const bool identical =
          std::memcmp(want.data(), got.data(), run_dim * sizeof(cplx)) == 0;
      const double per_op_ms = 1e3 * best_seconds(reps, [&] {
        for (int r = 0; r < kernel_rounds; ++r) per_op(work.data(), k);
      });
      const double run_ms = 1e3 * best_seconds(reps, [&] {
        for (int r = 0; r < kernel_rounds; ++r)
          cs::kernels::apply_diag_run(work.data(), run_dim, ops.data(), k);
      });
      const double speedup = run_ms > 0.0 ? per_op_ms / run_ms : 0.0;
      if (k == 4) run_speedup_4 = speedup;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"k\": %d, \"per_op_ms\": %.4f, \"run_ms\": %.4f, "
                    "\"speedup\": %.3f, \"identical\": %s}%s\n",
                    k, per_op_ms, run_ms, speedup,
                    identical ? "true" : "false", k < 8 ? "," : "");
      json += buf;
      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: diag_run k=%d on path %s differs from %d per-op "
                     "calls\n",
                     k, simd::path_name(best), k);
        std::exit(1);
      }
    }
  }
  json += "  ],\n";

  // ---- lane-batch thermal: three historical passes vs. two (every path) -
  json += "  \"lane_thermal\": [\n";
  {
    // Serial, as on the exec pool workers that run lane batches (the
    // damp-only sweep would fan out here otherwise).
    const charter::util::SerialKernels serial;
    const std::uint64_t lane_dim = 1ULL << kLaneQubits;
    const std::uint64_t mask = 1ULL << kLaneQubit;
    const double keep = std::sqrt(1.0 - 0.01);
    const std::vector<cplx> lane_input =
        random_state(lane_dim * kLanes, /*seed=*/11);
    bool first = true;
    for (const simd::SimdPath path :
         {simd::SimdPath::kScalar, simd::SimdPath::kWidth2,
          simd::SimdPath::kAvx2, simd::SimdPath::kAvx512}) {
      if (!simd::set_path(path)) continue;
      double want_p1[kLanes], want_norm[kLanes], p1[kLanes], norm[kLanes];
      std::vector<cplx> want = lane_input;
      std::vector<cplx> got = lane_input;
      three_pass_thermal(want.data(), lane_dim, mask, keep, want_p1,
                         want_norm);
      two_pass_thermal(got.data(), lane_dim, mask, keep, p1, norm);
      const bool identical =
          std::memcmp(want.data(), got.data(), got.size() * sizeof(cplx)) ==
              0 &&
          std::memcmp(want_p1, p1, sizeof(p1)) == 0 &&
          std::memcmp(want_norm, norm, sizeof(norm)) == 0;
      // The two forms alternate rep by rep, so a drift in host speed
      // reaches both best-of times alike.
      std::vector<cplx> work = lane_input;
      double three_ms = 1e300, two_ms = 1e300;
      for (int rep = 0; rep < reps; ++rep) {
        three_ms = std::min(three_ms, 1e3 * best_seconds(1, [&] {
          for (int r = 0; r < kernel_rounds; ++r)
            three_pass_thermal(work.data(), lane_dim, mask, keep, p1, norm);
        }));
        two_ms = std::min(two_ms, 1e3 * best_seconds(1, [&] {
          for (int r = 0; r < kernel_rounds; ++r)
            two_pass_thermal(work.data(), lane_dim, mask, keep, p1, norm);
        }));
      }
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s    {\"path\": \"%s\", \"three_pass_ms\": %.4f, "
                    "\"two_pass_ms\": %.4f, \"speedup\": %.3f, "
                    "\"identical\": %s}",
                    first ? "" : ",\n", simd::path_name(path), three_ms,
                    two_ms, two_ms > 0.0 ? three_ms / two_ms : 0.0,
                    identical ? "true" : "false");
      json += buf;
      first = false;
      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: lane_thermal on path %s differs from the "
                     "three-pass loops\n",
                     simd::path_name(path));
        std::exit(1);
      }
    }
  }
  json += "\n  ],\n";

  // ---- lane sweep: separate passes vs. one pass (every path) ------------
  json += "  \"lane_sweep\": [\n";
  {
    // Serial, as on the exec pool workers that run lane batches.
    const charter::util::SerialKernels serial;
    const std::uint64_t lane_dim = 1ULL << kLaneQubits;
    const double keep = std::sqrt(1.0 - 0.01);
    const std::vector<cplx> lane_input =
        random_state(lane_dim * kLanes, /*seed=*/13);
    // Scales of a plausible no-jump norm, and the qaoa pattern's ops: a ZZ
    // phase on a neighbour pair, RZ phases.
    const double norm0[kLanes] = {0.991, 0.987, 0.995, 0.983};
    const auto diag = [](int qa, int qb, double theta) {
      const cplx e0 = std::exp(cplx(0.0, -theta));
      const cplx e1 = std::exp(cplx(0.0, theta));
      charter::math::LaneOp op;
      op.diag = qb < 0 ? charter::math::DiagOp{1ULL << qa, 0, {e0, e1, e0, e1}}
                       : charter::math::DiagOp{1ULL << qa, 1ULL << qb,
                                               {e0, e1, e1, e0}};
      return op;
    };
    const std::uint64_t a_mask = 1ULL << kLaneQubit;
    const std::uint64_t b_mask = 1ULL << (kLaneQubit + 1);
    const std::vector<SweepShape> shapes = {
        {"damp_sums", {damp_op(a_mask, keep, norm0)}, b_mask},
        {"diag_sums", {diag(kLaneQubit, kLaneQubit + 1, 0.3)}, a_mask},
        {"damp_diag3",
         {damp_op(b_mask, keep, norm0), diag(3, 9, 0.2), diag(3, -1, 0.4),
          diag(9, -1, 0.5)},
         0},
    };
    bool first = true;
    for (const simd::SimdPath path :
         {simd::SimdPath::kScalar, simd::SimdPath::kWidth2,
          simd::SimdPath::kAvx2, simd::SimdPath::kAvx512}) {
      if (!simd::set_path(path)) continue;
      for (const SweepShape& shape : shapes) {
        double want_p1[kLanes] = {}, want_norm[kLanes] = {};
        double p1[kLanes] = {}, norm[kLanes] = {};
        std::vector<cplx> want = lane_input;
        std::vector<cplx> got = lane_input;
        separate_passes(want.data(), lane_dim, shape, keep, want_p1,
                        want_norm);
        one_sweep(got.data(), lane_dim, shape, keep, p1, norm);
        const bool identical =
            std::memcmp(want.data(), got.data(),
                        got.size() * sizeof(cplx)) == 0 &&
            std::memcmp(want_p1, p1, sizeof(p1)) == 0 &&
            std::memcmp(want_norm, norm, sizeof(norm)) == 0;
        // Alternating rep by rep, as the lane_thermal rows.  Each rep
        // starts from the input, so the damped block does not decay.
        double separate_ms = 1e300, sweep_ms = 1e300;
        for (int rep = 0; rep < reps; ++rep) {
          std::vector<cplx> work = lane_input;
          separate_ms = std::min(separate_ms, 1e3 * best_seconds(1, [&] {
            for (int r = 0; r < kernel_rounds; ++r)
              separate_passes(work.data(), lane_dim, shape, keep, p1, norm);
          }));
          work = lane_input;
          sweep_ms = std::min(sweep_ms, 1e3 * best_seconds(1, [&] {
            for (int r = 0; r < kernel_rounds; ++r)
              one_sweep(work.data(), lane_dim, shape, keep, p1, norm);
          }));
        }
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "%s    {\"path\": \"%s\", \"shape\": \"%s\", "
                      "\"separate_ms\": %.4f, \"sweep_ms\": %.4f, "
                      "\"speedup\": %.3f, \"identical\": %s}",
                      first ? "" : ",\n", simd::path_name(path), shape.name,
                      separate_ms, sweep_ms,
                      sweep_ms > 0.0 ? separate_ms / sweep_ms : 0.0,
                      identical ? "true" : "false");
        json += buf;
        first = false;
        if (!identical) {
          std::fprintf(stderr,
                       "FAIL: lane_sweep %s on path %s differs from its "
                       "separate passes\n",
                       shape.name, simd::path_name(path));
          std::exit(1);
        }
      }
    }
  }
  json += "\n  ],\n";

  // ---- DM kernels on a line-aligned vs. a 16-mod-64 vec(rho) -----------
  json += "  \"dm_align\": [\n";
  {
    // Serial, as the checkpoint base sweep and the exec pool workers run.
    const charter::util::SerialKernels serial;
    bool first = true;
    for (const simd::SimdPath path :
         {simd::SimdPath::kScalar, simd::SimdPath::kWidth2,
          simd::SimdPath::kAvx2, simd::SimdPath::kAvx512}) {
      if (!simd::set_path(path)) continue;
      for (const int n : {7, 8, 9}) {
        const std::uint64_t rho_dim = 1ULL << (2 * n);
        const std::uint64_t len = 1ULL << n;
        const std::vector<cplx> rho_input =
            random_state(rho_dim, /*seed=*/17 + n);
        // Layout 0 starts vec(rho) and the factor tables on a 64-byte
        // line (an engine's math::AmpBuffer); layout 1 starts them one
        // amplitude in, at 16 mod 64, where glibc put a plain
        // std::vector's large blocks.
        charter::math::AmpBuffer rho_buf[2] = {
            charter::math::AmpBuffer(rho_dim + 1),
            charter::math::AmpBuffer(rho_dim + 1)};
        charter::math::AmpBuffer table_buf[2] = {
            charter::math::AmpBuffer(2 * len + 1),
            charter::math::AmpBuffer(2 * len + 1)};
        cplx* rho[2];
        for (int l = 0; l < 2; ++l) {
          rho[l] = rho_buf[l].data() + l;
          cplx* row = table_buf[l].data() + l;
          cs::kernels::fill_diag_tables(
              n, {std::exp(cplx(0.0, -0.01)), std::exp(cplx(0.0, 0.01)),
                  std::exp(cplx(0.0, 0.01)), std::exp(cplx(0.0, -0.01))},
              1ULL << (n / 2), 1ULL << (n / 2 + 1), row, row + len);
        }
        const auto run = [&](int kernel, int l) {
          const cplx* row = table_buf[l].data() + l;
          dm_align_kernel(kernel, rho[l], n, row, row + len, u, v);
        };
        for (int kernel = 0; kernel < 5; ++kernel) {
          for (int l = 0; l < 2; ++l) {
            std::copy(rho_input.begin(), rho_input.end(), rho[l]);
            run(kernel, l);
          }
          const bool identical =
              std::memcmp(rho[0], rho[1], rho_dim * sizeof(cplx)) == 0;
          // The two layouts alternate rep by rep, each from the input.
          double ms[2] = {1e300, 1e300};
          for (int rep = 0; rep < reps; ++rep)
            for (int l = 0; l < 2; ++l) {
              std::copy(rho_input.begin(), rho_input.end(), rho[l]);
              ms[l] = std::min(ms[l], 1e3 * best_seconds(1, [&] {
                for (int r = 0; r < kernel_rounds; ++r) run(kernel, l);
              }));
            }
          char buf[320];
          std::snprintf(buf, sizeof(buf),
                        "%s    {\"path\": \"%s\", \"kernel\": \"%s\", "
                        "\"n\": %d, \"aligned_ms\": %.4f, "
                        "\"offset16_ms\": %.4f, \"speedup\": %.3f, "
                        "\"identical\": %s}",
                        first ? "" : ",\n", simd::path_name(path),
                        kAlignKernels[kernel], n, ms[0], ms[1],
                        ms[0] > 0.0 ? ms[1] / ms[0] : 0.0,
                        identical ? "true" : "false");
          json += buf;
          first = false;
          if (!identical) {
            std::fprintf(stderr,
                         "FAIL: dm_align %s n=%d on path %s differs between "
                         "a line-aligned and a 16-mod-64 vec(rho)\n",
                         kAlignKernels[kernel], n, simd::path_name(path));
            std::exit(1);
          }
        }
      }
    }
  }
  json += "\n  ],\n";

  // ---- shot sampling: historical loop vs. sample_counts ----------------
  json += "  \"sampling\": [\n";
  {
    constexpr std::uint64_t kShots = 8192;
    const int sample_reps = smoke ? 5 : 50;
    bool first = true;
    for (const std::size_t outcomes : {8u, 32u, 128u, 512u, 16384u}) {
      charter::util::Rng gen(outcomes);
      std::vector<double> probs(outcomes);
      for (double& p : probs) p = gen.uniform();
      bool identical = true;
      double loop_us = 1e300, sample_us = 1e300;
      for (int rep = 0; rep < sample_reps; ++rep) {
        charter::util::Rng loop_rng(rep), sample_rng(rep);
        std::vector<std::uint64_t> want, got;
        loop_us = std::min(loop_us, 1e6 * best_seconds(1, [&] {
          want = upper_bound_counts(probs, kShots, loop_rng);
        }));
        sample_us = std::min(sample_us, 1e6 * best_seconds(1, [&] {
          got = cs::sample_counts(probs, kShots, sample_rng);
        }));
        identical = identical && got == want &&
                    sample_rng.next_u64() == loop_rng.next_u64();
      }
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s    {\"outcomes\": %zu, \"shots\": %llu, "
                    "\"upper_bound_us\": %.2f, \"sample_us\": %.2f, "
                    "\"speedup\": %.3f, \"identical\": %s}",
                    first ? "" : ",\n", outcomes,
                    static_cast<unsigned long long>(kShots), loop_us,
                    sample_us, sample_us > 0.0 ? loop_us / sample_us : 0.0,
                    identical ? "true" : "false");
      json += buf;
      first = false;
      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: sample_counts differs from the upper_bound loop "
                     "at %zu outcomes\n",
                     outcomes);
        std::exit(1);
      }
    }
  }
  json += "\n  ],\n";

  // ---- raw kernel micro-benchmark: one fused pass vs. two passes --------
  // (on the best-available path, which stays active from here on)
  simd::set_path(best);
  std::vector<cplx> state(dim, cplx(0.0));
  state[0] = 1.0;
  const double two_pass_s = best_seconds(reps, [&] {
    cs::kernels::apply_1q(state.data(), dim, qa, u);
    cs::kernels::apply_1q(state.data(), dim, qb, v);
  });
  const double pair_s = best_seconds(reps, [&] {
    cs::kernels::apply_1q_pair(state.data(), dim, qa, u, qb, v);
  });

  // ---- tape pipeline: exact tape end-to-end -----------------------------
  const cn::NoiseModel model = line_model(qubits);
  const cc::Circuit circuit = workload(qubits, rounds);
  const cn::NoiseProgram exact = cn::lower(model, circuit);

  cs::DensityMatrixEngine engine(qubits);
  const double exact_s = best_seconds(reps, [&] { exact.execute(engine); });

  const double pair_speedup = pair_s > 0.0 ? two_pass_s / pair_s : 0.0;

  char tail[512];
  std::snprintf(tail, sizeof(tail),
                "  \"circuit_ops\": %zu,\n"
                "  \"tape_ops_exact\": %zu,\n"
                "  \"kernel_two_pass_ms\": %.4f,\n"
                "  \"kernel_pair_ms\": %.4f,\n"
                "  \"kernel_pair_speedup\": %.3f,\n"
                "  \"tape_exact_ms\": %.3f\n"
                "}\n",
                circuit.size(), exact.size(), two_pass_s * 1e3, pair_s * 1e3,
                pair_speedup, exact_s * 1e3);
  json += tail;
  std::fputs(json.c_str(), stdout);

  charter::bench::write_output_file(cli.get_string("out"), json);
  simd::set_path(original_path);

  std::fprintf(stderr,
               "note: best-vs-scalar speedups — unitary_1q_pair %.2fx, "
               "cx_pair %.2fx, diag_2q_pair %.2fx, thermal_block %.2fx, "
               "depol2q_block %.2fx; diag_run k=4 vs per-op %.2fx "
               "(path %s)\n",
               r_pair.speedup, r_cx.speedup, r_zz.speedup, r_thermal.speedup,
               r_depol2q.speedup, run_speedup_4, simd::path_name(best));
  return 0;
}
