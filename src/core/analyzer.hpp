#pragma once

/// \file analyzer.hpp
/// The CHARTER analysis pipeline (paper Fig. 6):
///   1. take a compiled (pre-mapped, basis-gate) program;
///   2. build one reversed circuit per eligible gate (RZ skipped);
///   3. run the original and every reversed circuit on the noisy backend;
///   4. score each gate by TVD(original output, reversed output).
///
/// The technique never consults an ideal simulation; the analyzer can
/// *optionally* compute the ideal distribution to validate the scores
/// (paper Table III), clearly separated in the options.

#include <cstdint>
#include <functional>
#include <vector>

#include "backend/backend.hpp"
#include "core/reversal.hpp"
#include "exec/batch.hpp"
#include "stats/stats.hpp"
#include "util/thread_pool.hpp"

namespace charter::core {

/// Analysis configuration.
struct CharterOptions {
  /// Reversed pairs per gate; the paper settles on 5 (Sec. IV-A).
  int reversals = 5;
  /// Skip virtual RZ gates (Sec. IV-B).  Turning this off reproduces the
  /// paper's demonstration that RZ impact is negligible.
  bool skip_rz = true;
  /// Barrier-isolate reversed pairs (paper Fig. 5).
  bool isolate = true;
  /// Analyze at most this many gates (0 = all).  When subsampling, gates
  /// are taken evenly across the circuit so every region stays represented.
  int max_gates = 0;
  /// Also compute the ideal distribution and per-gate TVD vs ideal
  /// (validation only — not part of the technique).
  bool compute_validation = false;
  /// Run the original and every reversed circuit under one shared seed
  /// instead of per-circuit derived seeds.  Classic common-random-numbers
  /// variance reduction: each per-gate TVD then compares distributions that
  /// share their sampling noise (drift draw, trajectory unravellings, shot
  /// sampling), so score differences reflect the inserted pairs rather than
  /// seed-to-seed fluctuation.  It changes only the seeds, never the
  /// execution route: trajectory runs stay independent full runs.  Off by
  /// default: the paper's protocol treats every run as an independent
  /// experiment.
  bool common_random_numbers = false;
  /// Execution options for every run (seed is re-derived per circuit).
  /// run.opt selects the tape level of trajectory runs: kExact (default) is
  /// bit-reproducible; kFusedWide consolidates coherent runs into dense
  /// wide gates with ~1e-12 agreement.  Density-matrix runs always execute
  /// the exact tape.
  backend::RunOptions run;
  /// Execution strategy: prefix-state checkpointing, run caching, and the
  /// worker-pool width (see exec/batch.hpp; exec.threads is the knob the
  /// CLI's --threads flag sets).  Checkpointing engages when exact-sharing
  /// applies — density-matrix engine with drift == 0 — by lowering the base
  /// circuit to a tape once and splicing every reversed circuit's tape from
  /// it.  Other configurations, the trajectory engine included, run
  /// independent full runs.
  /// Reports are bit-identical at every exec.threads value.
  exec::BatchOptions exec;
  /// Execution strategy for the sweep (exec/strategy.hpp).  A fixed kind
  /// (kDmExact, kTrajectory) overrides run.engine for every circuit; kAuto
  /// (the default) keeps the path run resolves to (exec::plan_family).  The
  /// decision is made once per analyze() call, so every chunk of one sweep
  /// runs the same strategy.
  exec::StrategyKind strategy = exec::StrategyKind::kAuto;
  /// Trajectory budget policy.  kFixedBudget (default): every trajectory
  /// run uses its full RunOptions::trajectories budget — the mode the
  /// bit-identity contract and golden fixtures are stated under.
  /// kAdaptive: trajectory sweeps stop allocating unravelling groups to a
  /// gate once its impact confidence interval separates from its rank
  /// neighbors (exec::run_adaptive_trajectory_sweep); savings land in
  /// exec_stats.trajectories_executed vs trajectories_budgeted.
  exec::BudgetMode budget = exec::BudgetMode::kFixedBudget;
};

/// Impact record for one analyzed gate.
struct GateImpact {
  std::size_t op_index = 0;       ///< index in the compiled circuit
  circ::GateKind kind = circ::GateKind::ID;
  std::array<std::int16_t, 3> qubits{{-1, -1, -1}};
  int num_qubits = 0;
  int layer = 0;                  ///< ASAP layer in the compiled circuit
  double tvd = 0.0;               ///< TVD(O_rev, O_orig) — the charter score
  double tvd_vs_ideal = 0.0;      ///< TVD(O_rev, O_ideal) — validation only
};

/// Full analysis result with the derived statistics the paper reports.
struct CharterReport {
  std::vector<GateImpact> impacts;
  std::vector<double> original_distribution;
  std::vector<double> ideal_distribution;  ///< empty unless validation on
  std::size_t total_gates = 0;     ///< non-barrier ops in the circuit
  std::size_t eligible_gates = 0;  ///< after RZ skipping
  std::size_t analyzed_gates = 0;  ///< after subsampling

  /// Execution diagnostics for the runs that produced *this* report (cache
  /// hits, checkpointed vs full runs, fallbacks), summed over the sweep's
  /// chunks.  Each result carries its own stats, so concurrent analyses
  /// never race on a shared "last stats" slot.
  exec::BatchRunner::Stats exec_stats;

  /// charter scores in impact order (same order as impacts).
  std::vector<double> scores() const;

  /// Pearson between gate impact and layer index (paper Table V).
  stats::Correlation layer_correlation() const;

  /// Pearson between TVD(rev, ideal) and TVD(rev, orig) (paper Table III).
  /// Requires compute_validation.
  stats::Correlation validation_correlation() const;

  /// Fraction of the program's qubits that appear among the top
  /// \p fraction highest-impact gates (paper Table VI).
  double qubit_coverage(double fraction, int num_qubits) const;

  /// Count and fraction of one-qubit SX/X gates whose impact exceeds the
  /// *least-impact* CX gate (paper Table VII).  Returns {0, 0} when the
  /// circuit has no CX or no one-qubit gates.
  struct OneQubitExceed {
    std::size_t count = 0;
    std::size_t one_qubit_total = 0;
    double fraction = 0.0;
  };
  OneQubitExceed one_qubit_above_min_cx() const;

  /// Impacts sorted by score descending.
  std::vector<GateImpact> sorted_by_impact() const;
};

/// Evenly subsamples \p indices down to at most \p limit entries, keeping
/// both ends when limit >= 2 (a single pick takes the middle element).
/// limit <= 0 means "no cap".  Exposed for tests.
std::vector<std::size_t> subsample_evenly(
    const std::vector<std::size_t>& indices, int limit);

/// Observation and cancellation hooks for one analysis (all optional).
/// The numbers are hook-independent: an observed analysis is bit-identical
/// to an unobserved one.
struct AnalysisHooks {
  /// Progress, as circuit executions complete: \p completed of \p total,
  /// where total is the original run plus one reversed circuit per analyzed
  /// gate.  Invocations are serialized and strictly monotone in
  /// \p completed, but arrive on worker threads — keep the body cheap.
  std::function<void(std::size_t completed, std::size_t total)> on_progress;
  /// Scored per-gate impacts, streamed from the coordinating thread in
  /// deterministic submission order (ascending op_index) as each execution
  /// chunk is scored.  The same records appear in CharterReport::impacts.
  std::function<void(const GateImpact&)> on_impact;
  /// Cooperative cancellation: a requested flag frees the workers at the
  /// next job boundary and makes analyze()/input_impact() throw
  /// charter::Cancelled; no partial report escapes.
  const util::CancelFlag* cancel = nullptr;
};

/// Orchestrates charter over a backend.
///
/// Works against the abstract backend::Backend interface; when the backend
/// supports lowering the exec layer transparently checkpoints, otherwise
/// every run executes whole.  Stateless apart from its options — analyze()
/// may be called concurrently from many threads, and each report carries
/// the execution stats of its own sweep (CharterReport::exec_stats).
class CharterAnalyzer {
 public:
  CharterAnalyzer(const backend::Backend& backend, CharterOptions options);

  /// Full per-gate analysis of a compiled program.  \p hooks (optional)
  /// observes progress and streamed impacts and carries the cancellation
  /// flag.
  CharterReport analyze(const backend::CompiledProgram& program,
                        const AnalysisHooks* hooks = nullptr) const;

  /// Combined impact of the input-preparation region via block reversal
  /// (paper Sec. V "Discovering High-Impact Inputs"): TVD between the
  /// block-reversed circuit's output and the original output.  Only the
  /// progress/cancel hooks apply (there is no per-gate stream).
  double input_impact(const backend::CompiledProgram& program,
                      const AnalysisHooks* hooks = nullptr) const;

  const CharterOptions& options() const { return options_; }

 private:
  const backend::Backend& backend_;
  CharterOptions options_;
};

}  // namespace charter::core
