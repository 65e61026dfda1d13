// Tests for the execution-strategy portfolio (exec/strategy.hpp): stable
// strategy names and CLI spellings, the fixed-rule classifier, plan_family's
// static rule (fixed kinds prepare RunOptions, kAuto prepares the path the
// run classifies as), the fused-wide tape-sharing width fix, the adaptive
// trajectory sweep (full-budget bit-equality, early termination with rank
// preservation, pool-width determinism), and the `--strategy auto` extension
// of the determinism matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <charter/charter.hpp>

#include "backend/backend.hpp"
#include "core/analyzer.hpp"
#include "core/reversal.hpp"
#include "exec/batch.hpp"
#include "exec/cache.hpp"
#include "exec/strategy.hpp"
#include "sim/density_matrix.hpp"
#include "sim/trajectory.hpp"
#include "stats/stats.hpp"
#include "util/error.hpp"

namespace cb = charter::backend;
namespace cc = charter::circ;
namespace cn = charter::noise;
namespace co = charter::core;
namespace cs = charter::sim;
namespace ex = charter::exec;
using ex::StrategyKind;

namespace {

/// A 5-qubit logical program with enough depth to compile to a few dozen
/// basis gates (same shape the exec tests use).
cc::Circuit deep_logical(int rounds = 3) {
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

cb::CompiledProgram compiled_program(const cb::FakeBackend& backend,
                                     int rounds = 3) {
  return backend.compile(deep_logical(rounds));
}

ex::StrategyContext make_context(int width = 5) {
  ex::StrategyContext ctx;
  ctx.width = width;
  ctx.jobs = 8;
  ctx.lowering = true;
  return ctx;
}

void expect_distributions_close(const std::vector<double>& a,
                                const std::vector<double>& b, double tol,
                                const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], tol) << label << " outcome " << i;
}

}  // namespace

// ---------------------------------------------------------------------------
// Names and classification
// ---------------------------------------------------------------------------

TEST(StrategyNames, StableNamesRoundTripThroughTheParser) {
  for (const StrategyKind kind :
       {StrategyKind::kAuto, StrategyKind::kDmExact, StrategyKind::kTrajectory,
        StrategyKind::kCheckpointSplice}) {
    const auto parsed = ex::strategy_from_name(ex::strategy_name(kind));
    ASSERT_TRUE(parsed.has_value()) << ex::strategy_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(StrategyNames, CliSpellingsMapToKinds) {
  EXPECT_EQ(ex::strategy_from_name("auto"), StrategyKind::kAuto);
  EXPECT_EQ(ex::strategy_from_name("dm"), StrategyKind::kDmExact);
  EXPECT_EQ(ex::strategy_from_name("trajectory"), StrategyKind::kTrajectory);
  // The retired density-matrix fusion levels are unknown spellings.
  for (const char* retired :
       {"fused", "fused-wide", "dm_fused", "dm_fused_wide"})
    EXPECT_FALSE(ex::strategy_from_name(retired).has_value()) << retired;
  EXPECT_FALSE(ex::strategy_from_name("warp-drive").has_value());
  EXPECT_FALSE(ex::strategy_from_name("").has_value());
}

TEST(StrategyNames, AutoIsNotAnExecutionPath) {
  EXPECT_THROW(ex::strategy(StrategyKind::kAuto), charter::InvalidArgument);
}

TEST(ClassifyRun, MatchesTheFixedRules) {
  cb::RunOptions run;  // engine kAuto, opt kExact
  EXPECT_EQ(ex::classify_run(run, 5), StrategyKind::kDmExact);
  // The tape level is a trajectory setting; it never changes the path.
  run.opt = cn::OptLevel::kFusedWide;
  EXPECT_EQ(ex::classify_run(run, 5), StrategyKind::kDmExact);
  run.engine = cb::EngineKind::kTrajectory;
  EXPECT_EQ(ex::classify_run(run, 5), StrategyKind::kTrajectory);
  run.opt = cn::OptLevel::kExact;
  // kAuto past the density-matrix cap degrades to trajectories.
  run.engine = cb::EngineKind::kAuto;
  EXPECT_EQ(
      ex::classify_run(run, cs::DensityMatrixEngine::kMaxQubits + 1),
      StrategyKind::kTrajectory);
}

// ---------------------------------------------------------------------------
// plan_family: the static rule
// ---------------------------------------------------------------------------

TEST(PlanFamily, FixedKindsPrepareTheRunOptions) {
  const ex::StrategyContext ctx = make_context();

  const auto dm = ex::plan_family(StrategyKind::kDmExact,
                                  ex::BudgetMode::kAdaptive, ctx);
  EXPECT_EQ(dm.strategy, StrategyKind::kDmExact);
  EXPECT_EQ(dm.run.engine, cb::EngineKind::kDensityMatrix);
  EXPECT_EQ(dm.run.opt, cn::OptLevel::kExact);
  EXPECT_FALSE(dm.adaptive);

  const auto traj = ex::plan_family(StrategyKind::kTrajectory,
                                    ex::BudgetMode::kAdaptive, ctx);
  EXPECT_EQ(traj.strategy, StrategyKind::kTrajectory);
  EXPECT_EQ(traj.run.engine, cb::EngineKind::kTrajectory);
  EXPECT_TRUE(traj.adaptive);
}

TEST(PlanFamily, FixedDmRequestPastTheCapDegradesToTrajectories) {
  const ex::StrategyContext wide =
      make_context(cs::DensityMatrixEngine::kMaxQubits + 1);
  const auto d = ex::plan_family(StrategyKind::kDmExact,
                                 ex::BudgetMode::kFixedBudget, wide);
  EXPECT_EQ(d.strategy, StrategyKind::kTrajectory);
  EXPECT_EQ(d.run.engine, cb::EngineKind::kTrajectory);
}

TEST(PlanFamily, AutoPreparesThePathTheRunClassifiesAs) {
  ex::StrategyContext ctx = make_context();
  ctx.run.opt = cn::OptLevel::kFusedWide;
  const auto dm = ex::plan_family(StrategyKind::kAuto,
                                  ex::BudgetMode::kFixedBudget, ctx);
  EXPECT_EQ(dm.strategy, StrategyKind::kDmExact);
  EXPECT_EQ(dm.run.engine, cb::EngineKind::kDensityMatrix);
  EXPECT_FALSE(dm.adaptive);

  // Past the density-matrix cap the run classifies as a trajectory sweep,
  // which keeps the caller's tape level.
  ex::StrategyContext wide = ctx;
  wide.width = cs::DensityMatrixEngine::kMaxQubits + 1;
  const auto traj = ex::plan_family(StrategyKind::kAuto,
                                    ex::BudgetMode::kFixedBudget, wide);
  EXPECT_EQ(traj.strategy, StrategyKind::kTrajectory);
  EXPECT_EQ(traj.run.engine, cb::EngineKind::kTrajectory);
  EXPECT_EQ(traj.run.opt, cn::OptLevel::kFusedWide);
}

TEST(PlanFamily, SpliceRequestNeedsLoweringAndSharers) {
  ex::StrategyContext ctx = make_context();
  EXPECT_EQ(ex::plan_family(StrategyKind::kCheckpointSplice,
                            ex::BudgetMode::kFixedBudget, ctx)
                .strategy,
            StrategyKind::kCheckpointSplice);
  ctx.jobs = 1;
  EXPECT_EQ(ex::plan_family(StrategyKind::kCheckpointSplice,
                            ex::BudgetMode::kFixedBudget, ctx)
                .strategy,
            StrategyKind::kTrajectory);
}

TEST(PlanFamily, AdaptiveArmsOnlyForTrajectoryFamilies) {
  ex::StrategyContext ctx = make_context();
  const auto dm = ex::plan_family(StrategyKind::kAuto,
                                  ex::BudgetMode::kAdaptive, ctx);
  EXPECT_FALSE(dm.adaptive);  // DM family: nothing to early-terminate
  ctx.run.engine = cb::EngineKind::kTrajectory;
  const auto traj = ex::plan_family(StrategyKind::kAuto,
                                    ex::BudgetMode::kAdaptive, ctx);
  EXPECT_TRUE(traj.adaptive);
}

// ---------------------------------------------------------------------------
// Fused-wide trajectory jobs: each lowers at its own fusion width
// ---------------------------------------------------------------------------

TEST(FusedWideGrouping, MixedFusionWidthJobsNeverShareATape) {
  // A width-2 and a width-3 fused-wide trajectory run lower to different
  // tapes.  The jobs share a seed and declare prefixes against the base,
  // yet every one runs in full on its own tape and matches its own
  // standalone run bit for bit.
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  ASSERT_GE(eligible.size(), 4u);

  std::vector<cb::CompiledProgram> reversed;
  std::vector<ex::AnalysisJob> jobs;
  reversed.reserve(4);
  for (std::size_t k = 0; k < 4; ++k) {
    const std::size_t g = eligible[k];
    cb::CompiledProgram rev = program;
    rev.physical = co::insert_reversed_pairs(program.physical, g, 2, true);
    reversed.push_back(std::move(rev));
    cb::RunOptions run;
    run.shots = 0;
    run.engine = cb::EngineKind::kTrajectory;
    run.trajectories = 12;
    run.seed = 11;
    run.opt = cn::OptLevel::kFusedWide;
    run.fusion_width = k == 0 ? 2 : 3;
    jobs.push_back({&reversed.back(), run, g + 1});
  }

  ex::BatchOptions options;
  options.caching = false;
  options.threads = 2;
  ex::RunCache::global().clear();
  const ex::BatchRunner runner(backend, options);
  const std::vector<std::vector<double>> results =
      runner.run(jobs, &program);
  ASSERT_EQ(results.size(), jobs.size());
  EXPECT_EQ(runner.last_stats().trajectory_checkpointed, 0u);
  EXPECT_EQ(runner.last_stats().full_runs, jobs.size());

  for (std::size_t k = 0; k < jobs.size(); ++k)
    expect_distributions_close(
        results[k], backend.run(reversed[k], jobs[k].run), 0.0,
        "fusion_width=" + std::to_string(jobs[k].run.fusion_width) + " job " +
            std::to_string(k));
}

// ---------------------------------------------------------------------------
// Adaptive trajectory sweep
// ---------------------------------------------------------------------------

namespace {

struct AdaptiveFixture {
  cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  cb::CompiledProgram program;
  std::vector<cb::CompiledProgram> reversed;
  std::vector<ex::AdaptiveJob> jobs;
  std::vector<double> original;

  explicit AdaptiveFixture(int trajectories, std::size_t gates = 4)
      : program(compiled_program(backend, 2)) {
    const std::vector<std::size_t> eligible =
        co::reversible_ops(program.physical, true);
    EXPECT_GE(eligible.size(), gates);
    cb::RunOptions base_run;
    base_run.shots = 0;  // engine-level distributions
    base_run.engine = cb::EngineKind::kTrajectory;
    base_run.trajectories = trajectories;
    base_run.seed = 5;
    original = backend.run(program, base_run);
    // Spread the insertion points so the impact estimates separate.
    const std::size_t stride = eligible.size() / gates;
    reversed.reserve(gates);
    for (std::size_t k = 0; k < gates; ++k) {
      const std::size_t g = eligible[k * stride];
      cb::CompiledProgram rev = program;
      rev.physical = co::insert_reversed_pairs(program.physical, g, 2, true);
      reversed.push_back(std::move(rev));
      cb::RunOptions run = base_run;
      run.seed = base_run.seed + g;
      jobs.push_back({&reversed.back(), run});
    }
  }
};

}  // namespace

TEST(AdaptiveSweep, FullBudgetMatchesBackendRunBitExactly) {
  // Two groups total with min_groups = 2: the sequential test can never fire
  // before the budget is exhausted, so every distribution must be
  // bit-identical to a standalone full-budget run.
  AdaptiveFixture fx(2 * cs::kTrajectoryGroupSize);
  ex::AdaptiveOptions options;
  options.threads = 2;
  const ex::AdaptiveResult result = ex::run_adaptive_trajectory_sweep(
      fx.backend, fx.jobs, fx.original, options);

  EXPECT_EQ(result.trajectories_executed, result.trajectories_budgeted);
  EXPECT_EQ(result.gates_settled_early, 0u);
  ASSERT_EQ(result.distributions.size(), fx.jobs.size());
  for (std::size_t k = 0; k < fx.jobs.size(); ++k) {
    const std::vector<double> standalone =
        fx.backend.run(fx.reversed[k], fx.jobs[k].run);
    ASSERT_EQ(result.distributions[k].size(), standalone.size());
    for (std::size_t i = 0; i < standalone.size(); ++i)
      EXPECT_EQ(result.distributions[k][i], standalone[i])
          << "job " << k << " outcome " << i;
  }
}

TEST(AdaptiveSweep, EarlyTerminationSavesTrajectoriesAndKeepsTheRanking) {
  const int trajectories = 10 * cs::kTrajectoryGroupSize;
  AdaptiveFixture fx(trajectories);

  // Full-budget reference ranking (what kFixedBudget would report).
  std::vector<double> full_tvds;
  for (std::size_t k = 0; k < fx.jobs.size(); ++k)
    full_tvds.push_back(charter::stats::tvd(
        fx.backend.run(fx.reversed[k], fx.jobs[k].run), fx.original));
  std::vector<std::size_t> full_rank(fx.jobs.size());
  std::iota(full_rank.begin(), full_rank.end(), std::size_t{0});
  std::stable_sort(full_rank.begin(), full_rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return full_tvds[a] > full_tvds[b];
                   });

  ex::AdaptiveOptions options;
  options.threads = 2;
  options.z = 2.0;
  const ex::AdaptiveResult result = ex::run_adaptive_trajectory_sweep(
      fx.backend, fx.jobs, fx.original, options);

  EXPECT_EQ(result.trajectories_budgeted,
            fx.jobs.size() * static_cast<std::size_t>(trajectories));
  EXPECT_LT(result.trajectories_executed, result.trajectories_budgeted);
  EXPECT_GE(result.gates_settled_early, 1u);

  std::vector<double> adaptive_tvds;
  for (const std::vector<double>& dist : result.distributions)
    adaptive_tvds.push_back(charter::stats::tvd(dist, fx.original));
  std::vector<std::size_t> adaptive_rank(fx.jobs.size());
  std::iota(adaptive_rank.begin(), adaptive_rank.end(), std::size_t{0});
  std::stable_sort(adaptive_rank.begin(), adaptive_rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return adaptive_tvds[a] > adaptive_tvds[b];
                   });
  EXPECT_EQ(adaptive_rank, full_rank);
}

TEST(AdaptiveSweep, ResultsAreIdenticalAtEveryPoolWidth) {
  // Stopping decisions happen on the coordinating thread from index-ordered
  // folds, so the outcome — distributions and savings — cannot depend on
  // how many workers executed the groups.
  const int trajectories = 6 * cs::kTrajectoryGroupSize;
  AdaptiveFixture narrow_fx(trajectories);
  AdaptiveFixture wide_fx(trajectories);

  ex::AdaptiveOptions narrow;
  narrow.threads = 1;
  const ex::AdaptiveResult a = ex::run_adaptive_trajectory_sweep(
      narrow_fx.backend, narrow_fx.jobs, narrow_fx.original, narrow);
  ex::AdaptiveOptions wide;
  wide.threads = 4;
  const ex::AdaptiveResult b = ex::run_adaptive_trajectory_sweep(
      wide_fx.backend, wide_fx.jobs, wide_fx.original, wide);

  EXPECT_EQ(a.trajectories_executed, b.trajectories_executed);
  EXPECT_EQ(a.gates_settled_early, b.gates_settled_early);
  ASSERT_EQ(a.distributions.size(), b.distributions.size());
  for (std::size_t k = 0; k < a.distributions.size(); ++k) {
    ASSERT_EQ(a.distributions[k].size(), b.distributions[k].size());
    for (std::size_t i = 0; i < a.distributions[k].size(); ++i)
      EXPECT_EQ(a.distributions[k][i], b.distributions[k][i])
          << "job " << k << " outcome " << i;
  }
}

TEST(AdaptiveSweep, AnalyzerAdaptiveBudgetPreservesTheTopGate) {
  // End to end through the analyzer: kAdaptive must reduce executed
  // trajectories, account for the savings in exec_stats, and leave the
  // top-ranked gate unchanged vs the fixed-budget analysis.
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);

  co::CharterOptions fixed;
  fixed.reversals = 5;
  // Keep the virtual RZ gates in the sweep: their near-zero impact sits far
  // below the noisy gates', so the sequential test has real rank gaps to
  // separate — mirroring the production shape where adaptive budgets pay.
  fixed.skip_rz = false;
  fixed.max_gates = 6;
  fixed.common_random_numbers = true;
  fixed.run.shots = 0;
  fixed.run.engine = cb::EngineKind::kTrajectory;
  fixed.run.trajectories = 24 * cs::kTrajectoryGroupSize;
  fixed.run.seed = 7;
  fixed.exec.threads = 2;
  fixed.exec.caching = false;

  co::CharterOptions adaptive = fixed;
  adaptive.budget = ex::BudgetMode::kAdaptive;

  ex::RunCache::global().clear();
  const co::CharterReport fixed_report =
      co::CharterAnalyzer(backend, fixed).analyze(program);
  const co::CharterReport adaptive_report =
      co::CharterAnalyzer(backend, adaptive).analyze(program);
  ex::RunCache::global().clear();

  // Fixed budgets never report adaptive accounting.
  EXPECT_EQ(fixed_report.exec_stats.trajectories_budgeted, 0u);
  EXPECT_EQ(fixed_report.exec_stats.trajectories_executed, 0u);
  EXPECT_EQ(fixed_report.exec_stats.gates_settled_early, 0u);

  const std::size_t budget =
      adaptive_report.impacts.size() *
      static_cast<std::size_t>(adaptive.run.trajectories);
  EXPECT_EQ(adaptive_report.exec_stats.trajectories_budgeted, budget);
  EXPECT_LT(adaptive_report.exec_stats.trajectories_executed, budget);
  EXPECT_GE(adaptive_report.exec_stats.gates_settled_early, 1u);

  ASSERT_EQ(adaptive_report.impacts.size(), fixed_report.impacts.size());
  // The original run is untouched by the budget mode.
  ASSERT_EQ(adaptive_report.original_distribution.size(),
            fixed_report.original_distribution.size());
  for (std::size_t i = 0; i < fixed_report.original_distribution.size(); ++i)
    EXPECT_EQ(adaptive_report.original_distribution[i],
              fixed_report.original_distribution[i]);
  const auto fixed_sorted = fixed_report.sorted_by_impact();
  const auto adaptive_sorted = adaptive_report.sorted_by_impact();
  EXPECT_EQ(adaptive_sorted.front().op_index, fixed_sorted.front().op_index);
}

// ---------------------------------------------------------------------------
// Determinism matrix: --strategy auto under kFixedBudget
// ---------------------------------------------------------------------------

namespace {

struct MatrixRun {
  co::CharterReport cold_report;
  co::CharterReport warm_report;
};

MatrixRun analyze_at_width(const cb::FakeBackend& backend,
                           const cb::CompiledProgram& program,
                           co::CharterOptions options, int threads) {
  options.exec.threads = threads;
  options.exec.caching = true;
  ex::RunCache::global().clear();
  const co::CharterAnalyzer analyzer(backend, options);
  MatrixRun out;
  out.cold_report = analyzer.analyze(program);
  out.warm_report = analyzer.analyze(program);  // all jobs from cache
  ex::RunCache::global().clear();
  return out;
}

void expect_reports_identical(const co::CharterReport& a,
                              const co::CharterReport& b,
                              const std::string& label) {
  ASSERT_EQ(a.impacts.size(), b.impacts.size()) << label;
  ASSERT_EQ(a.original_distribution.size(), b.original_distribution.size())
      << label;
  for (std::size_t i = 0; i < a.original_distribution.size(); ++i)
    EXPECT_EQ(a.original_distribution[i], b.original_distribution[i])
        << label << " outcome " << i;
  for (std::size_t k = 0; k < a.impacts.size(); ++k) {
    EXPECT_EQ(a.impacts[k].op_index, b.impacts[k].op_index) << label;
    EXPECT_EQ(a.impacts[k].tvd, b.impacts[k].tvd) << label << " gate " << k;
  }
}

}  // namespace

TEST(DeterminismMatrix, AutoStrategyIsBitIdenticalToFixedDm) {
  // Under kFixedBudget `--strategy auto` keeps the path the run options
  // classify as, so it must reproduce the fixed dm reference bit-for-bit at
  // every thread and worker count — cold and warm.
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);

  co::CharterOptions dm;
  dm.reversals = 2;
  dm.run.shots = 4096;
  dm.run.seed = 2022;
  dm.strategy = StrategyKind::kDmExact;
  const MatrixRun reference = analyze_at_width(backend, program, dm, 1);

  for (const int threads : {1, 2, 8}) {
    for (const int workers : {0, 2}) {
      co::CharterOptions auto_options = dm;
      auto_options.strategy = StrategyKind::kAuto;
      auto_options.exec.workers = workers;
      const MatrixRun run =
          analyze_at_width(backend, program, auto_options, threads);
      const std::string label = "auto @threads=" + std::to_string(threads) +
                                " workers=" + std::to_string(workers);
      expect_reports_identical(reference.cold_report, run.cold_report,
                               label + " cold");
      expect_reports_identical(reference.warm_report, run.warm_report,
                               label + " warm");
      // Every executed job is classified and the routes are timed.
      const ex::BatchRunner::Stats& stats = run.cold_report.exec_stats;
      EXPECT_EQ(stats.strategy_jobs.dm_exact +
                    stats.strategy_jobs.checkpoint_splice,
                stats.jobs)
          << label;
      EXPECT_GT(stats.actual_ns, 0.0) << label;
    }
  }
}
