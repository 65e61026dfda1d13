#pragma once

/// \file trajectory_plan.hpp
/// Prefix-state checkpointing for the trajectory engine.
///
/// The density-matrix CheckpointPlan cannot serve trajectory jobs: a
/// trajectory run is a *family* of stochastic unravellings, and an engine
/// snapshot without the random stream would resample every branch after the
/// resume point.  But TrajectoryEngine::clone() copies the state *and* the
/// RNG stream — evolving the clone and the original with the same ops is
/// bit-identical — so a prefix snapshot per (trajectory, fork point) is
/// exact: a derived circuit that shares ops [0, L) with the base, run with
/// the *same* unravelling seeds, consumes the identical tape prefix and
/// therefore the identical random draws, and resuming trajectory t from its
/// clone at L reproduces the cold run of that trajectory bit for bit.
///
/// Sharing therefore requires more than the DM plan did: every job must
/// agree on (seed, trajectory count) with the base sweep, not just on the
/// circuit prefix.  BatchRunner enforces that when classifying jobs; the
/// analyzer opts in via CharterOptions::common_random_numbers, which runs
/// all reversed circuits under one seed (the classic common-random-numbers
/// variance reduction: per-gate TVDs compare distributions that share their
/// sampling noise).
///
/// The base sweep fans the trajectories out over the worker pool in
/// kTrajectoryGroupSize fold groups; every averaged distribution — the base
/// run and each resumed derived run — is folded in trajectory-index order
/// (sim::fold_trajectory_groups), so results never depend on the thread
/// count.  Snapshots cost num_trajectories statevectors per fork point
/// (16 bytes * 2^n each — far cheaper than one 4^n density matrix for small
/// trajectory counts); when the requested fork points exceed the memory
/// budget an evenly spaced deep-biased subset is kept and the gap is
/// replayed, exactly like the DM plan.

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "noise/executor.hpp"
#include "sim/trajectory.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace charter::exec {

/// Checkpointed trajectory-execution plan over one base circuit.  Built once
/// (one pooled sweep of the base per unravelling), then shared read-only
/// across worker threads.
class TrajectoryCheckpointPlan {
 public:
  /// Sweeps \p base once per unravelling on its exact tape, cloning each
  /// engine after every prefix length in \p prefix_lens (deduped; capped by
  /// \p memory_budget_bytes).  A kFusedWide \p executor re-fuses each
  /// resumed suffix past its resume point.  \p run_seed is the jobs' shared
  /// RunOptions::seed; the plan derives the same per-trajectory engine
  /// seeds FakeBackend::run would.  The sweep's trajectory groups are
  /// distributed over \p pool.  The executor must outlive the plan.
  TrajectoryCheckpointPlan(const noise::NoisyExecutor& executor,
                           circ::Circuit base,
                           std::vector<std::size_t> prefix_lens,
                           int num_trajectories, std::uint64_t run_seed,
                           std::size_t memory_budget_bytes,
                           util::ThreadPool& pool);

  const circ::Circuit& base_circuit() const { return base_; }
  int num_trajectories() const { return num_trajectories_; }

  /// Trajectory-averaged engine-level probabilities of the base circuit
  /// (the sweep runs every unravelling to completion, so the original run
  /// comes for free).
  const std::vector<double>& base_probabilities() const { return base_probs_; }

  /// Runs \p c — which shares ops [0, prefix_len) with the base — across
  /// all unravellings, resuming each from its deepest usable clone, and
  /// returns the averaged engine probabilities (pre-readout).  Falls back
  /// to cold runs of every unravelling when the prefix is not provably
  /// exact.  Thread-safe; runs serially on the calling worker (jobs are the
  /// outer parallelism).
  std::vector<double> run_shared(const circ::Circuit& c,
                                 std::size_t prefix_len) const;

  std::size_t num_checkpoints() const { return checkpoints_.size(); }

  struct Stats {
    std::size_t resumed = 0;       ///< jobs served from clones
    std::size_t replayed_ops = 0;  ///< per-job gap ops re-simulated
    std::size_t fallbacks = 0;     ///< jobs re-run cold (all unravellings)
  };
  Stats stats() const {
    return {resumed_.load(), replayed_ops_.load(), fallbacks_.load()};
  }

 private:
  /// All unravellings' clones at one fork point.
  struct Checkpoint {
    std::size_t prefix_len = 0;
    std::size_t tape_pos = 0;  ///< base-tape position of the fork point
    std::vector<std::unique_ptr<sim::NoisyEngine>> engines;  ///< per t
  };

  std::vector<double> run_cold(const circ::Circuit& c) const;

  const noise::NoisyExecutor& executor_;
  circ::Circuit base_;
  noise::NoisyExecutor::Stream base_stream_;  ///< exact tape + resume records
  int num_trajectories_;
  util::Rng seeder_;                     ///< salted family root
  std::vector<Checkpoint> checkpoints_;  ///< ascending prefix_len
  std::vector<double> base_probs_;
  mutable std::atomic<std::size_t> resumed_{0};
  mutable std::atomic<std::size_t> replayed_ops_{0};
  mutable std::atomic<std::size_t> fallbacks_{0};
};

}  // namespace charter::exec
