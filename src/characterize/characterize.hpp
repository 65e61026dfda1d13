#pragma once

/// \file characterize.hpp
/// GST-style error-channel estimation for charter's critical gates.
///
/// Charter's reversed-pair sweep says *which* gates matter; this subsystem
/// says *what is wrong with them*.  For each of the top-k gates of a
/// CharterReport it runs germ-style amplification sequences — the gate's
/// reversed pair (U^dagger, U) repeated L times, L swept over a ladder —
/// and fits the measured decay curve d(L) = TVD(original, sequence_L) to a
/// depolarizing + coherent-rotation channel decomposition:
///
///   d(L) = A (1 - rho^L) + B rho^L (sin^2(phi L + phi/2) - sin^2(phi/2))
///
/// where rho is the depolarizing survival per germ pair (two applications
/// of the gate, so rho = (1-p)^2 for per-application depolarizing p) and
/// phi is the coherent error angle per application (pi * overrot_frac for
/// X-family gates, the residual ZZ angle for CX).  The phi/2 phase offset
/// is the original circuit's own single application of the gate — the
/// identity cos(a) - cos(a+x) = 2 sin(x/2) sin(a + x/2) makes the form
/// exact for a single amplified rotation, and readout confusion only
/// rescales A and B (SPAM robustness, the reason GST uses germs at all).
///
/// The sequences reuse the exec layer wholesale: for one gate, the deepest
/// sequence is the batch's base program and every shallower depth L claims
/// a shared prefix of op_index + 1 + isolate + 2L ops, so it resumes from
/// the base sweep's prefix checkpoints instead of re-simulating the ramp
/// (sharing is re-verified at run time; an over-claim degrades to a full
/// run, never a wrong answer).  Reports are bit-identical at every
/// thread/worker count for the same reason CharterReports are.
///
/// References: gate set tomography (Nielsen et al., arXiv:2009.07301) and
/// its randomized-linear variant (Gu et al., arXiv:2010.12235).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "core/analyzer.hpp"
#include "exec/batch.hpp"
#include "exec/strategy.hpp"
#include "stats/stats.hpp"

namespace charter::characterize {

/// Characterization configuration.
struct CharacterizeOptions {
  /// Gates to characterize, taken from the Charter ranking (impact
  /// descending).  Clamped to the report's analyzed gate count.
  int top_k = 3;
  /// The germ ladder: pair repetition counts L.  A dense head keeps the
  /// coherent angle unaliased; the geometric tail amplifies small errors
  /// above the fit's noise floor.  Sorted/deduplicated on use.
  std::vector<int> depths = {1, 2, 3, 4, 6, 8, 12, 16};
  /// Residual-resampling bootstrap replicates per gate (0 disables CIs).
  int bootstrap_resamples = 200;
  /// Two-sided CI level for the bootstrap intervals.
  double confidence = 0.95;
  /// Barrier-isolate the germ block (same as CharterOptions::isolate).
  bool isolate = true;
  /// Charter's reversal count r: severity is the fitted model evaluated at
  /// L = r, i.e. the excess TVD the Charter sweep itself would see — the
  /// quantity the cross-validation compares against the Charter ranking.
  int severity_reversals = 5;
  /// Share one seed across the original and every sequence (variance
  /// reduction for the decay curve, and what makes trajectory-engine
  /// checkpoint sharing possible).  On by default: the decay curve is a
  /// within-experiment comparison, unlike the paper's independent runs.
  bool common_random_numbers = true;
  /// Execution options for every run (seed is re-derived per circuit).
  backend::RunOptions run;
  /// Exec-layer knobs (checkpointing is what the germ ladder feeds on).
  exec::BatchOptions exec;
  /// Strategy selection for the sequence sweeps, planned once per
  /// characterization (exec::plan_family).  Adaptive
  /// trajectory budgets never apply here — every depth of a decay curve
  /// must run its full budget or the fit would see a moving target.
  exec::StrategyKind strategy = exec::StrategyKind::kAuto;
};

// ---------------------------------------------------------------------------
// Germ scheduling
// ---------------------------------------------------------------------------

/// One depth-L germ sequence: the spliced program plus the op count it
/// provably shares with the ladder's base (deepest) sequence.
struct GermSequence {
  int depth = 0;
  backend::CompiledProgram program;
  /// Leading ops shared with the ladder base — the checkpoint claim the
  /// exec layer verifies and resumes from.
  std::size_t shared_prefix = 0;
};

/// The ladder for one gate, ascending depth; back() is the base sequence
/// every shallower depth resumes from (its shared_prefix is its full size,
/// the same convention the analyzer uses for the original program).
struct GermLadder {
  std::size_t op_index = 0;
  std::vector<GermSequence> sequences;
};

/// Builds amplification ladders by splicing reversed pairs into a compiled
/// program.  Pure circuit construction — no execution.
class GermScheduler {
 public:
  /// Validates, sorts, and deduplicates \p depths (all >= 1, non-empty).
  GermScheduler(std::vector<int> depths, bool isolate);

  const std::vector<int>& depths() const { return depths_; }
  int max_depth() const { return depths_.back(); }

  /// The full ladder for the gate at \p op_index of \p program.
  GermLadder ladder(const backend::CompiledProgram& program,
                    std::size_t op_index) const;

  /// Ops a depth-L sequence shares with any deeper sequence of the same
  /// gate: the original prefix through the gate, the opening isolation
  /// barrier, and L whole pairs.
  std::size_t shared_prefix_ops(std::size_t op_index, int depth) const;

 private:
  std::vector<int> depths_;
  bool isolate_;
};

// ---------------------------------------------------------------------------
// Channel estimation
// ---------------------------------------------------------------------------

/// One measured point of a gate's decay curve.
struct DecayPoint {
  int depth = 0;    ///< pair repetitions L
  double tvd = 0.0; ///< TVD(original output, sequence_L output)
};

/// Fitted depolarizing + coherent-rotation decomposition of a decay curve.
struct ChannelFit {
  double rho = 1.0;        ///< depolarizing survival per germ pair
  double phi = 0.0;        ///< coherent error angle per gate application
  double saturation = 0.0; ///< A: depolarizing saturation TVD
  double coherent_amplitude = 0.0;  ///< B: coherent oscillation amplitude
  double residual_rms = 0.0;        ///< fit quality over the ladder

  /// Per-application depolarizing probability implied by rho (a germ pair
  /// applies the gate twice, so rho = (1 - p)^2).  p is the Bloch-sphere
  /// contraction 1 - p per application — the channel-level convention
  /// rho_out = (1 - p) rho_in + p I/2.  The simulator's calibration knob
  /// (OneQubitGateCal::depol) is a *uniform-Pauli* error probability q,
  /// which contracts the Bloch sphere by 1 - 4q/3; recovering the knob
  /// from a fit therefore means q = 3p/4 (and 15p/16 for two-qubit depol).
  double depol_per_application() const;
};

/// Bootstrap confidence intervals for the fitted parameters.
struct ChannelIntervals {
  stats::BootstrapCI depol;     ///< depol_per_application
  stats::BootstrapCI rotation;  ///< phi
  stats::BootstrapCI severity;  ///< model prediction at L = reversals
};

/// Deterministic decay-curve fitting: a coarse (rho, phi) grid with three
/// zoom rounds, non-negative linear least squares for (A, B) at each grid
/// point.  A pure function of the decay points — the reason reports stay
/// bit-identical at every thread count.
class ChannelEstimator {
 public:
  /// \p seed feeds the bootstrap's residual resampling only.
  ChannelEstimator(int bootstrap_resamples, double confidence,
                   std::uint64_t seed);

  ChannelFit fit(std::span<const DecayPoint> decay) const;

  /// Model prediction d(L) for a fitted channel.
  static double predict(const ChannelFit& fit, double depth);

  /// Residual-resampling bootstrap around \p fit: refits each replicate
  /// and returns percentile intervals.  Degenerate (zero-width at the
  /// point estimate) when bootstrap_resamples == 0.
  ChannelIntervals bootstrap(std::span<const DecayPoint> decay,
                             const ChannelFit& fit,
                             int severity_reversals) const;

 private:
  int resamples_;
  double confidence_;
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Everything estimated for one gate.
struct GateCharacterization {
  std::size_t op_index = 0;
  circ::GateKind kind = circ::GateKind::ID;
  std::array<std::int16_t, 3> qubits{{-1, -1, -1}};
  int num_qubits = 0;
  double charter_tvd = 0.0;  ///< the Charter score this gate ranked by
  std::vector<DecayPoint> decay;
  ChannelFit fit;
  double severity = 0.0;  ///< predicted d(L) at L = severity_reversals
  ChannelIntervals ci;
  /// SPAM estimate averaged over the gate's measured qubits: marginal
  /// p(read 1 | prepared 0) from the empty fiducial and p(read 0 |
  /// prepared 1) from the all-X fiducial.  Includes preparation error and
  /// (for p10) one X gate's noise — it is a SPAM bound, not a readout-only
  /// number, which is exactly why the decay fit never consumes it.
  double spam_p01 = 0.0;
  double spam_p10 = 0.0;
};

/// Full characterization result.
struct CharacterizationReport {
  std::vector<int> depths;        ///< the germ ladder actually run
  int severity_reversals = 0;
  std::vector<GateCharacterization> gates;  ///< Charter-rank order
  std::vector<double> original_distribution;
  /// Spearman rank correlation between the fitted severities and the
  /// Charter scores over the characterized set — the GST-vs-reversibility
  /// cross-validation (r = 1 when the orderings agree exactly; 0 when
  /// fewer than three gates were characterized).
  double rank_agreement = 0.0;
  std::size_t total_sequences = 0;  ///< germ sequences executed
  /// Execution diagnostics summed over every batch of this
  /// characterization (same semantics as CharterReport::exec_stats).
  exec::BatchRunner::Stats exec_stats;

  /// Gate indices (into gates) sorted by fitted severity, descending.
  std::vector<std::size_t> severity_ranking() const;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Orchestrates characterization over a backend: germ ladders through
/// exec::BatchRunner (strategy-planned, checkpoint-spliced, cached),
/// decay-curve fits, bootstrap CIs, and the cross-validation against the
/// Charter ranking.  Stateless apart from its options, like
/// CharterAnalyzer.
class GateCharacterizer {
 public:
  GateCharacterizer(const backend::Backend& backend,
                    CharacterizeOptions options);

  /// Characterizes the top-k gates of \p report, which must describe
  /// \p program (op indices and gate kinds are cross-checked).  \p hooks
  /// observes progress (one tick per executed circuit) and carries the
  /// cancellation flag; on_impact is not used.
  CharacterizationReport characterize(
      const backend::CompiledProgram& program,
      const core::CharterReport& report,
      const core::AnalysisHooks* hooks = nullptr) const;

  const CharacterizeOptions& options() const { return options_; }

 private:
  const backend::Backend& backend_;
  CharacterizeOptions options_;
};

}  // namespace charter::characterize
