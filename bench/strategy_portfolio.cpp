// Benchmark of the execution-strategy portfolio: --strategy auto (the
// static rule in exec::plan_family) raced against the fixed dm_exact
// strategy on three circuit families (QFT, VQE ansatz, random-basis), plus
// the adaptive trajectory budget's early-termination savings.
//
// Per family the bench records:
//   fixed.dm_exact_ms                  best-of-reps fixed dm_exact sweep time
//   auto_ms / auto_pick / auto_vs_best the auto sweep's time, which
//                                      strategy the rule picked, and its
//                                      ratio to the best fixed choice
//   auto_cold_bit_identical            the auto sweep must pick dm_exact and
//                                      be bit-identical to it — the
//                                      kFixedBudget contract
//   rankings_match                     dm_exact and the auto sweep rank the
//                                      gates identically
//
// The adaptive row runs the same trajectory sweep twice — fixed budget vs
// BudgetMode::kAdaptive — and records the trajectory savings; the top-k
// gate ranking must be unchanged.
//
// Self-checks (exit 1): auto is never > 1.1x slower than the best fixed
// strategy (plus a 0.5 ms absolute floor so sub-millisecond smoke sweeps
// don't flake on scheduler jitter), the auto sweep picks dm_exact and is
// bit-identical to it, rankings agree, and
// adaptive early termination saves trajectories without touching the top-k
// ranking.
//
// Usage: bench_strategy_portfolio [--reps N] [--reversals N] [--max-gates N]
//                                 [--smoke] [--out PATH]
//
// CI records the --smoke output as BENCH_strategy.json and
// tools/check_bench_trend.py validates the keys and re-checks the gates.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "algos/registry.hpp"
#include "backend/backend.hpp"
#include "bench/common.hpp"
#include "circuit/circuit.hpp"
#include "core/analyzer.hpp"
#include "exec/strategy.hpp"
#include "math/simd_dispatch.hpp"
#include "sim/trajectory.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace ca = charter::algos;
namespace cb = charter::backend;
namespace cc = charter::circ;
namespace co = charter::core;
namespace cs = charter::sim;
namespace ex = charter::exec;

using ex::StrategyKind;

namespace {

/// Deep 5-qubit workload for the adaptive row: CX ladders, T phases, and
/// RX rotations.  Its impact spectrum has one clearly dominant CX (TVD
/// ~0.11, nearly 1.5x its neighbor) over well-spread mid ranks and a
/// zero-impact RZ floor — the separation the sequential test needs to
/// settle a gate early without perturbing the ranking.
cc::Circuit deep_logical(int rounds) {
  cc::Circuit c(5);
  for (int q = 0; q < 5; ++q) c.h(q, cc::kFlagInputPrep);
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < 4; ++q) c.cx(q, q + 1);
    for (int q = 0; q < 5; ++q) c.t(q);
    c.cx(4, 3);
    for (int q = 0; q < 5; ++q) c.rx(q, 0.3 + 0.1 * q);
  }
  return c;
}

/// Random-basis family: haphazard RZ-SX-RZ basis changes plus a shuffled
/// CX pattern, seeded by a fixed LCG so every run sees the same circuit.
cc::Circuit random_basis(int qubits, int rounds) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) /
           static_cast<double>(1ull << 53);
  };
  cc::Circuit c(qubits);
  for (int q = 0; q < qubits; ++q) c.h(q, cc::kFlagInputPrep);
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < qubits; ++q)
      c.rz(q, 6.28 * next() - 3.14).sx(q).rz(q, 6.28 * next() - 3.14);
    for (int q = 0; q + 1 < qubits; ++q)
      if (next() < 0.6) c.cx(q, q + 1);
  }
  return c;
}

double analyze_seconds(const cb::FakeBackend& backend,
                       const cb::CompiledProgram& program,
                       const co::CharterOptions& options, int reps,
                       co::CharterReport* out) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const co::CharterAnalyzer analyzer(backend, options);
    charter::util::Timer timer;
    co::CharterReport report = analyzer.analyze(program);
    best = std::min(best, timer.seconds());
    if (out != nullptr) *out = std::move(report);
  }
  return best;
}

bool reports_identical(const co::CharterReport& a, const co::CharterReport& b) {
  if (a.impacts.size() != b.impacts.size()) return false;
  if (a.original_distribution != b.original_distribution) return false;
  for (std::size_t i = 0; i < a.impacts.size(); ++i) {
    if (a.impacts[i].op_index != b.impacts[i].op_index) return false;
    if (a.impacts[i].tvd != b.impacts[i].tvd) return false;
  }
  return true;
}

bool rankings_match(const co::CharterReport& a, const co::CharterReport& b) {
  const auto ra = a.sorted_by_impact();
  const auto rb = b.sorted_by_impact();
  if (ra.size() != rb.size()) return false;
  for (std::size_t i = 0; i < ra.size(); ++i)
    if (ra[i].op_index != rb[i].op_index) return false;
  return true;
}

/// True when the \p k highest-impact gates match, in order.
bool topk_match(const co::CharterReport& a, const co::CharterReport& b,
                std::size_t k) {
  const auto ra = a.sorted_by_impact();
  const auto rb = b.sorted_by_impact();
  if (ra.size() != rb.size()) return false;
  k = std::min(k, ra.size());
  for (std::size_t i = 0; i < k; ++i)
    if (ra[i].op_index != rb[i].op_index) return false;
  return true;
}

/// The strategy a sweep's job accounting says it ran.  Checkpoint-splice
/// jobs ride along with the density-matrix path, so they never decide the
/// pick.
StrategyKind picked_strategy(const ex::BatchRunner::Stats& stats) {
  return stats.strategy_jobs.trajectory > stats.strategy_jobs.dm_exact
             ? StrategyKind::kTrajectory
             : StrategyKind::kDmExact;
}

struct FamilyRow {
  std::string name;
  int qubits = 0;
  std::size_t analyzed_gates = 0;
  double dm_exact_ms = 0.0;
  double auto_ms = 0.0;
  const char* auto_pick = "";
  const char* best_fixed = "";
  double best_fixed_ms = 0.0;
  double auto_vs_best = 0.0;
  bool auto_within_bound = false;
  bool auto_cold_bit_identical = false;
  bool rankings_ok = false;
};

/// The 1.1x gate with a 0.5 ms absolute floor: sub-millisecond sweeps
/// (the smoke qft leg) sit inside scheduler jitter, where a pure ratio
/// would flake; at real workload times the slack is negligible.
constexpr double kTimingSlackMs = 0.5;

FamilyRow bench_family(const std::string& name, const cb::FakeBackend& backend,
                       const cc::Circuit& circuit, int reversals,
                       int max_gates, int reps) {
  FamilyRow row;
  row.name = name;
  row.qubits = circuit.num_qubits();
  const cb::CompiledProgram program = backend.compile(circuit);

  co::CharterOptions options;
  options.reversals = reversals;
  options.max_gates = max_gates;
  options.run.shots = 0;
  options.run.seed = 2022;
  options.run.drift = 0.0;
  options.exec.threads = 2;
  options.exec.caching = false;

  co::CharterReport fixed_report;
  options.strategy = StrategyKind::kDmExact;
  row.dm_exact_ms =
      1e3 * analyze_seconds(backend, program, options, reps, &fixed_report);
  row.analyzed_gates = fixed_report.analyzed_gates;

  // Auto runs the static rule: it must pick dm_exact on these DM-sized
  // families and be bit-identical to it — the kFixedBudget determinism
  // contract — and stay within 1.1x of the fixed time.
  options.strategy = StrategyKind::kAuto;
  co::CharterReport auto_report;
  row.auto_ms =
      1e3 * analyze_seconds(backend, program, options, reps, &auto_report);
  const StrategyKind pick = picked_strategy(auto_report.exec_stats);
  row.auto_pick = ex::strategy_name(pick);
  row.auto_cold_bit_identical = pick == StrategyKind::kDmExact &&
                                reports_identical(auto_report, fixed_report);
  row.rankings_ok = rankings_match(fixed_report, auto_report);

  row.best_fixed = ex::strategy_name(StrategyKind::kDmExact);
  row.best_fixed_ms = row.dm_exact_ms;
  row.auto_vs_best =
      row.best_fixed_ms > 0.0 ? row.auto_ms / row.best_fixed_ms : 0.0;
  row.auto_within_bound =
      row.auto_ms <= 1.1 * row.best_fixed_ms + kTimingSlackMs;

  std::fprintf(stderr,
               "note: %s — dm_exact %.1f ms; auto %.1f ms (picked %s, "
               "%.2fx)\n",
               name.c_str(), row.dm_exact_ms, row.auto_ms, row.auto_pick,
               row.auto_vs_best);
  return row;
}

struct AdaptiveRow {
  std::string family;
  std::size_t budgeted = 0;
  std::size_t executed = 0;
  std::size_t settled = 0;
  double savings_pct = 0.0;
  bool topk_ok = false;
};

AdaptiveRow bench_adaptive(const std::string& family,
                           const cb::FakeBackend& backend,
                           const cc::Circuit& circuit, int reversals,
                           int max_gates, int groups) {
  AdaptiveRow row;
  row.family = family;
  const cb::CompiledProgram program = backend.compile(circuit);

  co::CharterOptions fixed;
  fixed.reversals = reversals;
  fixed.max_gates = max_gates;
  // Keep the virtual RZ gates in the sweep: their near-zero impact sits
  // far below the noisy gates', giving the sequential test real rank gaps
  // to separate — the regime where an adaptive budget pays.
  fixed.skip_rz = false;
  fixed.common_random_numbers = true;
  fixed.run.shots = 0;
  fixed.run.engine = cb::EngineKind::kTrajectory;
  fixed.run.trajectories = groups * cs::kTrajectoryGroupSize;
  fixed.run.seed = 7;
  fixed.exec.threads = 2;
  fixed.exec.caching = false;

  co::CharterReport full;
  analyze_seconds(backend, program, fixed, 1, &full);

  co::CharterOptions adaptive = fixed;
  adaptive.budget = ex::BudgetMode::kAdaptive;
  co::CharterReport early;
  analyze_seconds(backend, program, adaptive, 1, &early);

  row.budgeted = early.exec_stats.trajectories_budgeted;
  row.executed = early.exec_stats.trajectories_executed;
  row.settled = early.exec_stats.gates_settled_early;
  row.savings_pct =
      row.budgeted > 0
          ? 100.0 * static_cast<double>(row.budgeted - row.executed) /
                static_cast<double>(row.budgeted)
          : 0.0;
  row.topk_ok = topk_match(full, early, 3);

  std::fprintf(stderr,
               "note: adaptive %s — %zu/%zu trajectories (%.1f%% saved), "
               "%zu gates settled early, top-3 %s\n",
               family.c_str(), row.executed, row.budgeted, row.savings_pct,
               row.settled, row.topk_ok ? "unchanged" : "CHANGED");
  return row;
}

void append_family(std::string& json, const FamilyRow& row, bool last) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"name\": \"%s\", \"qubits\": %d, \"analyzed_gates\": %zu,\n"
      "     \"fixed\": {\"dm_exact_ms\": %.3f},\n"
      "     \"auto_ms\": %.3f, \"auto_pick\": \"%s\", "
      "\"best_fixed\": \"%s\", \"best_fixed_ms\": %.3f, "
      "\"auto_vs_best\": %.3f,\n"
      "     \"auto_within_bound\": %s, \"auto_cold_bit_identical\": %s, "
      "\"rankings_match\": %s}%s\n",
      row.name.c_str(), row.qubits, row.analyzed_gates, row.dm_exact_ms,
      row.auto_ms, row.auto_pick,
      row.best_fixed, row.best_fixed_ms, row.auto_vs_best,
      row.auto_within_bound ? "true" : "false",
      row.auto_cold_bit_identical ? "true" : "false",
      row.rankings_ok ? "true" : "false", last ? "" : ",");
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  charter::util::Cli cli(
      "bench_strategy_portfolio: --strategy auto vs the fixed dm_exact "
      "strategy per circuit family, plus adaptive trajectory-budget savings");
  cli.add_flag("reps", std::int64_t{3}, "timed repetitions (best-of)");
  cli.add_flag("reversals", std::int64_t{5}, "reversed pairs per gate");
  cli.add_flag("max-gates", std::int64_t{12}, "gate cap per family sweep");
  cli.add_flag("groups", std::int64_t{48},
               "trajectory groups budgeted per gate in the adaptive row");
  cli.add_flag("smoke", false, "CI preset: small circuits, best-of-2");
  cli.add_flag("out", std::string("bench_results/strategy_portfolio.json"),
               "JSON output path ('' = stdout only)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_bool("smoke");
  // Timing gate below compares two best-of-N runs of the same code path,
  // so even the smoke preset keeps N >= 2.
  const int reps = smoke ? 2 : static_cast<int>(cli.get_int("reps"));
  const int reversals = static_cast<int>(cli.get_int("reversals"));
  const int max_gates =
      smoke ? 6 : static_cast<int>(cli.get_int("max-gates"));
  const int groups = smoke ? 24 : static_cast<int>(cli.get_int("groups"));

  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const ca::AlgoSpec qft = ca::find_benchmark(smoke ? "qft3" : "qft7");
  const ca::AlgoSpec vqe = ca::find_benchmark("vqe4");
  const cc::Circuit random = random_basis(5, smoke ? 2 : 4);

  std::vector<FamilyRow> rows;
  rows.push_back(bench_family("qft", backend, qft.build(), reversals,
                              max_gates, reps));
  rows.push_back(bench_family("vqe", backend, vqe.build(), reversals,
                              max_gates, reps));
  rows.push_back(
      bench_family("random_basis", backend, random, reversals, max_gates,
                   reps));
  // The adaptive row is pinned to one workload shape in both modes: the
  // sequential test only settles when the sampled ranks are genuinely
  // separated, and rank preservation additionally needs the settled gate
  // far enough ahead that its less-averaged folded estimate (an early
  // stop folds fewer groups, which biases TVD up) cannot cross its
  // neighbor.  deep_logical's dominant CX satisfies both; denser
  // subsamples tie at the bottom (two exactly-zero RZs never separate)
  // or pack the spectrum tighter than the CI half-widths.
  const AdaptiveRow adaptive = bench_adaptive(
      "deep_logical", backend, deep_logical(2), reversals,
      /*max_gates=*/6, groups);

  namespace simd = charter::math::simd;
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"strategy\",\n";
  json += std::string("  \"simd_active\": \"") +
          simd::path_name(simd::active_path()) + "\",\n";
  json += "  \"reversals\": " + std::to_string(reversals) + ",\n";
  json += "  \"families\": [\n";
  for (std::size_t k = 0; k < rows.size(); ++k)
    append_family(json, rows[k], k + 1 == rows.size());
  json += "  ],\n";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"adaptive\": {\"family\": \"%s\", \"trajectories_budgeted\": %zu, "
      "\"trajectories_executed\": %zu, \"gates_settled_early\": %zu, "
      "\"savings_pct\": %.2f, \"topk\": 3, \"topk_match\": %s}\n",
      adaptive.family.c_str(), adaptive.budgeted, adaptive.executed,
      adaptive.settled, adaptive.savings_pct,
      adaptive.topk_ok ? "true" : "false");
  json += buf;
  json += "}\n";
  std::fputs(json.c_str(), stdout);
  charter::bench::write_output_file(cli.get_string("out"), json);

  bool ok = true;
  for (const FamilyRow& row : rows) {
    if (!row.auto_within_bound) {
      std::fprintf(stderr, "FAIL: %s auto %.2fx slower than best fixed\n",
                   row.name.c_str(), row.auto_vs_best);
      ok = false;
    }
    if (!row.auto_cold_bit_identical) {
      std::fprintf(stderr,
                   "FAIL: %s auto did not pick dm_exact or was not "
                   "bit-identical to it\n",
                   row.name.c_str());
      ok = false;
    }
    if (!row.rankings_ok) {
      std::fprintf(stderr,
                   "FAIL: %s auto and dm_exact disagree on the ranking\n",
                   row.name.c_str());
      ok = false;
    }
  }
  if (adaptive.executed >= adaptive.budgeted || adaptive.settled == 0) {
    std::fprintf(stderr, "FAIL: adaptive budget saved nothing\n");
    ok = false;
  }
  if (!adaptive.topk_ok) {
    std::fprintf(stderr, "FAIL: adaptive budget changed the top-3 ranking\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
