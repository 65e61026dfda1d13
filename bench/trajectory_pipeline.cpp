// Benchmark of the fused-wide trajectory pipeline: the tentpole use case is
// 20+ qubit trajectory sweeps, where the density-matrix engine is out of
// reach and every saved statevector pass is a full 2^n-amplitude scan.
//
//  1. coherent: a coherent-dominated noise config (decoherence and
//     depolarizing off; coherent over-rotations and ZZ phases on).  Wide
//     fusion collapses the per-round RZ-SX-RZ-SX-RZ runs and their phase
//     tails into dense two-qubit ops, so the fused-wide sweep makes far
//     fewer passes over the amplitudes.  This is the headline speedup row.
//  2. full_noise: every channel on.  Stochastic channels are fusion
//     barriers, so the tape stays draw-for-draw aligned and the speedup is
//     honest but modest — recorded so the trend shows both regimes.
//  3. threads[]: the fused-wide sweep re-run on 1 thread (under the exec
//     mark, as on an exec pool worker) and on the kernel pool's width (off
//     the exec pool); each row's folded distribution must be bit-identical
//     to the 1-thread row (group folding is index-ordered and the
//     amplitude-parallel sums are chunk-invariant).
//  4. lanes: one full-noise fold group (8 unravellings of the exact tape)
//     at n = 14 (n = 10 with --smoke), below the amplitude-parallel
//     threshold.  The per-unravelling loop the lane batch replaced — one
//     TrajectoryEngine per unravelling, probabilities summed in order — is
//     kept here as the reference and timed against run_trajectory_group,
//     whose partial must match it byte for byte.  Both run on serial
//     kernels, as on an exec pool worker, so the row compares one core's
//     work.
//
// Both rows assert exact-vs-fused-wide agreement <= 1e-12 on the folded
// distribution, so every bench run doubles as an equivalence check at a
// width the unit tests never reach.
//
// Emits JSON like bench_sim_kernels; CI records the --smoke output as
// BENCH_trajectory.json and tools/check_bench_trend.py validates the keys.
//
// Usage: bench_trajectory_pipeline [--qubits N] [--trajectories N]
//                                  [--rounds N] [--reps N] [--smoke]
//                                  [--out PATH]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "circuit/circuit.hpp"
#include "math/simd_dispatch.hpp"
#include "noise/calibration.hpp"
#include "noise/program.hpp"
#include "sim/trajectory.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace cc = charter::circ;
namespace cn = charter::noise;
namespace cs = charter::sim;
namespace simd = charter::math::simd;

namespace {

/// Transpiled-shape workload: u3-style RZ-SX-RZ-SX-RZ runs interleaved with
/// CX ladders — the same gate mix bench_sim_kernels times, at sweep widths.
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

cn::NoiseModel line_model(int qubits, bool coherent_only) {
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < qubits; ++q) edges.emplace_back(q, q + 1);
  cn::NoiseModel m = cn::generate_calibration(qubits, edges, /*seed=*/2022);
  if (coherent_only) {
    m.toggles().decoherence = false;
    m.toggles().depolarizing = false;
    m.toggles().prep = false;
    m.toggles().readout = false;
  }
  return m;
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

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

struct SweepRow {
  double exact_ms = 0.0;
  double fused_wide_ms = 0.0;
  double speedup = 0.0;
  double diff = 0.0;
  std::size_t tape_ops_exact = 0;
  std::size_t tape_ops_fused_wide = 0;
};

std::vector<double> sweep(const cn::NoiseProgram& tape, int qubits,
                          int trajectories, std::uint64_t seed) {
  return cs::run_trajectories(
      qubits, trajectories, seed,
      [&](cs::NoisyEngine& engine) { tape.execute(engine); });
}

SweepRow bench_config(const char* name, const cn::NoiseModel& model,
                      const cc::Circuit& circuit, int trajectories, int reps,
                      std::uint64_t seed) {
  SweepRow row;
  const int qubits = circuit.num_qubits();
  const cn::NoiseProgram exact = cn::lower(model, circuit);
  const cn::NoiseProgram wide = cn::fused_wide(exact);
  row.tape_ops_exact = exact.size();
  row.tape_ops_fused_wide = wide.size();

  const std::vector<double> p_exact =
      sweep(exact, qubits, trajectories, seed);
  const std::vector<double> p_wide = sweep(wide, qubits, trajectories, seed);
  row.diff = max_abs_diff(p_exact, p_wide);

  row.exact_ms = 1e3 * best_seconds(
                           reps, [&] { sweep(exact, qubits, trajectories, seed); });
  row.fused_wide_ms = 1e3 * best_seconds(
                                reps, [&] { sweep(wide, qubits, trajectories, seed); });
  row.speedup =
      row.fused_wide_ms > 0.0 ? row.exact_ms / row.fused_wide_ms : 0.0;

  std::fprintf(stderr,
               "note: %s — exact %.1f ms (%zu ops), fused-wide %.1f ms "
               "(%zu ops), %.2fx, diff %.2e\n",
               name, row.exact_ms, row.tape_ops_exact, row.fused_wide_ms,
               row.tape_ops_fused_wide, row.speedup, row.diff);
  return row;
}

/// The per-unravelling group loop run_trajectory_group used before lane
/// batching, on serial kernels as on an exec pool worker.
std::vector<double> one_at_a_time(const cn::NoiseProgram& tape, int begin,
                                  int end, const charter::util::Rng& seeder) {
  const charter::util::SerialKernels serial;
  std::vector<double> local(std::uint64_t{1} << tape.num_qubits(), 0.0);
  for (int t = begin; t < end; ++t) {
    cs::TrajectoryEngine engine(tape.num_qubits(),
                                cs::trajectory_engine_seed(seeder, t));
    tape.execute(engine);
    const std::vector<double> p = engine.probabilities();
    for (std::size_t i = 0; i < local.size(); ++i) local[i] += p[i];
  }
  return local;
}

struct LanesRow {
  int qubits = 0;
  double loop_ms = 0.0;
  double ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

LanesRow bench_lanes(int qubits, int rounds, int reps, std::uint64_t seed) {
  LanesRow row;
  row.qubits = qubits;
  const cn::NoiseProgram tape =
      cn::lower(line_model(qubits, /*coherent_only=*/false),
                workload(qubits, rounds));
  const charter::util::Rng seeder(seed);
  const int end = cs::kTrajectoryGroupSize;
  const auto batched = [&] {
    const charter::util::SerialKernels serial;
    return cs::run_trajectory_group(
        qubits, 0, end, seeder,
        [&](cs::NoisyEngine& engine) { tape.execute(engine); });
  };
  const std::vector<double> want = one_at_a_time(tape, 0, end, seeder);
  const std::vector<double> got = batched();
  row.identical = got.size() == want.size() &&
                  std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)) == 0;
  row.loop_ms = 1e3 * best_seconds(
                          reps, [&] { one_at_a_time(tape, 0, end, seeder); });
  row.ms = 1e3 * best_seconds(reps, [&] { batched(); });
  row.speedup = row.ms > 0.0 ? row.loop_ms / row.ms : 0.0;
  std::fprintf(stderr,
               "note: lanes n=%d — one at a time %.1f ms, lane batch %.1f ms, "
               "%.2fx, %s\n",
               qubits, row.loop_ms, row.ms, row.speedup,
               row.identical ? "identical" : "DIFFERENT");
  return row;
}

void append_row(std::string& json, const char* name, const SweepRow& row) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"exact_ms\": %.3f, \"fused_wide_ms\": %.3f, "
                "\"speedup\": %.3f, \"tape_ops_exact\": %zu, "
                "\"tape_ops_fused_wide\": %zu, \"max_abs_diff\": %.3e},\n",
                name, row.exact_ms, row.fused_wide_ms, row.speedup,
                row.tape_ops_exact, row.tape_ops_fused_wide, row.diff);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  charter::util::Cli cli(
      "bench_trajectory_pipeline: exact vs fused-wide trajectory sweeps at "
      "statevector widths, plus thread-count determinism rows");
  cli.add_flag("qubits", std::int64_t{20}, "statevector width");
  cli.add_flag("trajectories", std::int64_t{8}, "unravellings per sweep");
  cli.add_flag("rounds", std::int64_t{6}, "workload rounds (depth scale)");
  cli.add_flag("reps", std::int64_t{3}, "timed repetitions (best-of)");
  cli.add_flag("smoke", false, "tiny sizes for CI; asserts agreement bound");
  cli.add_flag("out", std::string("bench_results/trajectory_pipeline.json"),
               "JSON output path ('' = stdout only)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_bool("smoke");
  const int qubits = smoke ? 10 : static_cast<int>(cli.get_int("qubits"));
  const int trajectories =
      smoke ? 4 : static_cast<int>(cli.get_int("trajectories"));
  const int rounds = smoke ? 4 : static_cast<int>(cli.get_int("rounds"));
  const int reps = smoke ? 2 : static_cast<int>(cli.get_int("reps"));
  const std::uint64_t seed = 2022;

  const cc::Circuit circuit = workload(qubits, rounds);
  const cn::NoiseModel coherent = line_model(qubits, /*coherent_only=*/true);
  const cn::NoiseModel full = line_model(qubits, /*coherent_only=*/false);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"trajectory\",\n";
  json += "  \"qubits\": " + std::to_string(qubits) + ",\n";
  json += "  \"trajectories\": " + std::to_string(trajectories) + ",\n";
  json += "  \"circuit_ops\": " + std::to_string(circuit.size()) + ",\n";
  json += std::string("  \"simd_active\": \"") +
          simd::path_name(simd::active_path()) + "\",\n";
  json += "  \"simd_available\": \"" + simd::available_paths() + "\",\n";
  json +=
      "  \"fusion_width\": " + std::to_string(cn::fusion_width()) + ",\n";
  json += "  \"amp_parallel_min_qubits\": " +
          std::to_string(cs::amp_parallel_min_qubits()) + ",\n";

  const SweepRow coh =
      bench_config("coherent", coherent, circuit, trajectories, reps, seed);
  const SweepRow fn =
      bench_config("full_noise", full, circuit, trajectories, reps, seed);
  append_row(json, "coherent", coh);
  append_row(json, "full_noise", fn);

  const LanesRow lanes = bench_lanes(smoke ? 10 : 14, rounds, reps, seed);
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"lanes\": {\"qubits\": %d, \"trajectories\": %d, "
                  "\"loop_ms\": %.3f, \"ms\": %.3f, \"speedup\": %.3f, "
                  "\"identical\": %s},\n",
                  lanes.qubits, cs::kTrajectoryGroupSize, lanes.loop_ms,
                  lanes.ms, lanes.speedup,
                  lanes.identical ? "true" : "false");
    json += buf;
  }

  // Thread-count determinism: the fused-wide coherent sweep folded on one
  // marked thread and on the kernel pool must be bit-identical
  // (index-ordered group folds; chunk-invariant amplitude sums in the
  // parallel regime).
  const cn::NoiseProgram wide_tape =
      cn::fused_wide(cn::lower(coherent, circuit));
  json += "  \"threads\": [\n";
  std::vector<double> one_thread;
  bool threads_ok = true;
  const int width = charter::util::kernel_pool_width();
  for (const int t :
       width > 1 ? std::vector<int>{1, width} : std::vector<int>{1}) {
    std::optional<charter::util::SerialKernels> mark;
    if (t == 1) mark.emplace();
    const double ms = 1e3 * best_seconds(1, [&] {
                        sweep(wide_tape, qubits, trajectories, seed);
                      });
    const std::vector<double> p =
        sweep(wide_tape, qubits, trajectories, seed);
    if (t == 1) one_thread = p;
    const bool identical =
        p.size() == one_thread.size() &&
        std::memcmp(p.data(), one_thread.data(),
                    p.size() * sizeof(double)) == 0;
    threads_ok = threads_ok && identical;
    if (t != 1) json += ",\n";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"ms\": %.3f, "
                  "\"bit_identical_to_1_thread\": %s}",
                  t, ms, identical ? "true" : "false");
    json += buf;
  }
  json += "\n  ]\n}\n";
  std::fputs(json.c_str(), stdout);
  charter::bench::write_output_file(cli.get_string("out"), json);

  if (!(coh.diff <= 1e-12) || !(fn.diff <= 1e-12)) {
    std::fprintf(stderr, "FAIL: fused-wide sweep diverged (> 1e-12)\n");
    return 1;
  }
  if (!lanes.identical) {
    std::fprintf(stderr,
                 "FAIL: the lane batch changed a fold group's partial\n");
    return 1;
  }
  if (!threads_ok) {
    std::fprintf(stderr,
                 "FAIL: thread count changed the folded distribution\n");
    return 1;
  }
  if (coh.tape_ops_fused_wide >= coh.tape_ops_exact) {
    std::fprintf(stderr, "FAIL: wide fusion did not shrink the tape\n");
    return 1;
  }
  return 0;
}
