#pragma once

/// \file strategy.hpp
/// The execution-strategy portfolio: names for the distinct ways the exec
/// layer can run an analysis job family, and the static rule that picks
/// one per family.
///
/// BatchRunner has three execution paths — DM-exact, trajectory sweeps,
/// and checkpoint-splice resumption.  This file names each path as a
/// StrategyKind (stable strategy_name()s that appear in exec stats and on
/// the CLI) and adds:
///
///  - plan_family: the static per-family rule.  A fixed kind maps directly
///    onto prepared RunOptions (degrading to trajectories past the
///    density-matrix cap); kAuto keeps the path classify_run resolves the
///    baseline options to.  Under the default BudgetMode::kFixedBudget
///    `--strategy auto` therefore preserves the bit-identity contract and
///    the golden fixtures;
///  - run_adaptive_trajectory_sweep: sequential-test early termination for
///    trajectory strategies (BudgetMode::kAdaptive).  Trajectory groups
///    are independently seeded (sim/trajectory.hpp), so a sweep can run
///    them one group at a time per gate and stop allocating groups to a
///    gate once its impact confidence interval separates from its rank
///    neighbors — the folded prefix of groups is exactly what a smaller
///    fixed budget would produce.  Gates whose rank stays ambiguous run to
///    the full budget, so top-k rankings are preserved while total
///    simulated trajectories drop.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "util/thread_pool.hpp"

namespace charter::exec {

struct RunHooks;  // exec/batch.hpp

/// The portfolio.  kAuto is a directive, not a path; the rest name a
/// concrete execution path and appear in exec stats under strategy_name().
enum class StrategyKind : std::uint8_t {
  kAuto = 0,          ///< the static rule picks (per job family)
  kDmExact,           ///< density-matrix engine, exact tape (bit-reproducible)
  kTrajectory,        ///< Monte-Carlo trajectory sweep
  kCheckpointSplice,  ///< DM job resumed from a shared prefix snapshot
};

/// Stable identifier ("dm_exact", "trajectory", ...) used in exec stats
/// JSON and logs.  Never renamed once shipped.
const char* strategy_name(StrategyKind kind);

/// Parses a user-facing strategy spelling (CLI `--strategy`): "auto",
/// "dm", "trajectory", or any stable strategy_name().  nullopt on unknown
/// input.
std::optional<StrategyKind> strategy_from_name(const std::string& name);

/// Trajectory shot/unravelling budget policy.
enum class BudgetMode : std::uint8_t {
  /// Every trajectory job runs its full RunOptions::trajectories budget.
  /// The default, and the mode every bit-identity contract (determinism
  /// matrix, golden fixtures) is stated under.
  kFixedBudget = 0,
  /// Sequential-test early termination: a gate stops receiving trajectory
  /// groups once its impact CI separates from its rank neighbors.  Saves
  /// simulation on settled gates; scores differ from kFixedBudget within
  /// the statistical tolerance the test enforces (top-k rank preserved).
  kAdaptive,
};

const char* budget_mode_name(BudgetMode mode);

/// What the static rule conditions a per-family decision on.
struct StrategyContext {
  int width = 0;           ///< compacted qubit count of the base program
  std::size_t jobs = 1;    ///< jobs in the family (original + reversed)
  backend::RunOptions run; ///< the family's baseline run options
  bool lowering = false;   ///< backend supports lower()/finalize()
};

/// One concrete execution path: the RunOptions rewrite (the engine) that
/// routes a job down it.  A plain value; see strategy().
class Strategy {
 public:
  constexpr explicit Strategy(StrategyKind kind) : kind_(kind) {}

  /// Rewrites \p run so the exec layer routes a job down this path.
  void prepare(backend::RunOptions& run) const;

 private:
  StrategyKind kind_;
};

/// The path named by \p kind (kAuto is not a path and throws
/// InvalidArgument).
Strategy strategy(StrategyKind kind);

/// Classifies the path a (run, width) pair resolves to under the fixed
/// rules: the engine family via backend::resolve_engine.
StrategyKind classify_run(const backend::RunOptions& run, int width);

/// A resolved per-family decision.
struct Decision {
  StrategyKind strategy = StrategyKind::kDmExact;
  backend::RunOptions run;  ///< prepared options for every job
  bool adaptive = false;    ///< early-termination sweep active
};

/// The static rule.  A fixed \p requested kind prepares ctx.run for that
/// path, or for trajectories when the path does not apply: a DM-family
/// request past the density-matrix cap (the same degradation
/// EngineKind::kAuto performs), or a splice request without lowering or
/// without a second job to share a prefix with.  kAuto prepares ctx.run
/// for the path classify_run resolves it to, so the engine family (and,
/// on trajectories, the tape level) the caller configured stand.  \p budget
/// arms the adaptive sweep for trajectory-family decisions.
Decision plan_family(StrategyKind requested, BudgetMode budget,
                     const StrategyContext& ctx);

// ---------------------------------------------------------------------------
// Adaptive trajectory sweep (BudgetMode::kAdaptive)
// ---------------------------------------------------------------------------

/// One gate's reversed circuit in an adaptive sweep.
struct AdaptiveJob {
  const backend::CompiledProgram* program = nullptr;
  backend::RunOptions run;
};

struct AdaptiveOptions {
  /// Groups every gate always executes before the sequential test may
  /// stop it (>= 2 so a variance estimate exists).
  int min_groups = 2;
  /// CI half-width multiplier: a gate settles when
  /// [tvd - z*se, tvd + z*se] is disjoint from both rank neighbors'
  /// intervals.  Larger = more conservative (fewer early stops).
  double z = 3.0;
  /// Worker pool (same semantics as BatchOptions: nullptr + threads).
  util::ThreadPool* pool = nullptr;
  int threads = 0;
  /// Completion/cancellation hooks (exec/batch.hpp semantics).
  const RunHooks* hooks = nullptr;
};

struct AdaptiveResult {
  /// Final logical distribution per job, folded over the trajectory
  /// groups that actually ran (finalized with each job's RunOptions).
  std::vector<std::vector<double>> distributions;
  std::size_t trajectories_budgeted = 0;
  std::size_t trajectories_executed = 0;
  std::size_t gates_settled_early = 0;
};

/// Runs every job on the trajectory engine with sequential-test early
/// termination against \p original (the reference distribution TVDs are
/// measured from).  Requires backend.supports_lowering().  Results are
/// deterministic at every pool width: group partials land by (job, group)
/// index and every stopping decision is made on the coordinating thread
/// from index-ordered folds.  Results are intentionally *not* cached —
/// an early-terminated distribution must never be served where a
/// full-budget one is expected.  Throws charter::Cancelled when
/// options.hooks carries a requested cancel flag.
AdaptiveResult run_adaptive_trajectory_sweep(
    const backend::Backend& backend, const std::vector<AdaptiveJob>& jobs,
    const std::vector<double>& original, const AdaptiveOptions& options);

}  // namespace charter::exec
