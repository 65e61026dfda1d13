#pragma once

/// \file checkpoint.hpp
/// Prefix-state checkpointing for families of near-identical circuits.
///
/// CHARTER's reversed circuits are byte-identical to the original up to the
/// insertion point (paper Fig. 5): the circuit for gate i is
/// `ops[0..i] ++ reversed-pairs ++ ops[i+1..]`.  Re-simulating the shared
/// prefix for every gate is what makes the naive analyzer O(G^2).  This
/// module simulates the *base* circuit once on the density-matrix engine —
/// as a NoiseProgram tape stream — snapshots vec(rho) at the tape position
/// after each requested prefix length, and resumes every derived circuit
/// from the deepest snapshot at or before its fork point, interpreting only
/// the tape ops for the inserted pairs and the suffix.
///
/// Lowering is shared, not repeated: each derived circuit's tape is
/// *spliced* from the base tape (noise::lower_spliced), which copies the
/// shared prefix verbatim, resumes the lazy decoherence/ZZ clock walk from
/// the recorded per-op state, and lowers only the suffix — so the analyzer's
/// G reversed circuits never re-derive their common prefix.
///
/// Exactness.  Resumption is bit-identical to a cold run because the splice
/// *verifies* per derived circuit that the prefix would lower identically
/// (same gates, same ASAP times, same drive-crosstalk terms — ASAP assigns
/// ops [0, L) the same windows in base and derived circuits because a
/// gate's time depends only on earlier gates).  The verification can fail,
/// e.g. when an un-isolated insertion overlaps a late-starting prefix op on
/// another qubit; on any mismatch the circuit silently falls back to a full
/// cold run, so checkpointing is always safe and never approximate.
/// Stochastic engines (trajectory) and drifted models re-randomize per run
/// and must not share prefixes at all — BatchRunner routes those to plain
/// full runs.
///
/// Memory.  Each snapshot costs 16 bytes * 4^n for an n-qubit local circuit.
/// When the requested snapshots exceed the budget, an evenly spaced subset
/// is kept; resumption replays the gap [snapshot, fork point) from the
/// shared prefix, trading time back for memory without losing exactness.
/// An inline plan keeps every snapshot as long as the plan lives.  A
/// pipelined plan frees a snapshot once its last declared consumer has
/// claimed it (that consumer takes over the plan's reference to the
/// buffer, so the buffer goes when the consumers are done), and its sweep
/// waits while max_pending snapshots are taken but unclaimed, so live
/// snapshot memory is bounded by the work in flight, not by the number of
/// gates.
///
/// Pipelining.  The snapshots, the spliced tapes and the resume positions
/// are the same for both plan kinds; only *when* each consumer starts
/// differs.  BatchRunner runs a pipelined plan's sweep as the caller task
/// of the ThreadPool::run that executes the shards, so each shard starts
/// replaying as soon as the one snapshot it resumes from exists.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "noise/executor.hpp"
#include "sim/density_matrix.hpp"
#include "util/thread_pool.hpp"

namespace charter::exec {

/// Checkpointed execution plan over one base circuit (density-matrix only).
/// The base is swept once; afterwards (inline) or while it runs
/// (pipelined), the plan is shared across worker threads.
class CheckpointPlan {
 public:
  /// Inline plan: sweeps \p base once under \p executor, snapshotting
  /// after each prefix length in \p prefix_lens (deduped; capped by
  /// \p memory_budget_bytes).  The executor must be OptLevel::kExact (the
  /// density-matrix path always runs the exact tape) and must outlive the
  /// plan.  Snapshots live as long as the plan.
  CheckpointPlan(const noise::NoisyExecutor& executor, circ::Circuit base,
                 std::vector<std::size_t> prefix_lens,
                 std::size_t memory_budget_bytes);

  /// Pipelined plan: selects the same snapshots as the inline plan but
  /// does not sweep — sweep() does, on a producer thread, while consumers
  /// call wait_for_segment() and prepare_shared() from other threads.
  /// Every entry of \p prefix_lens (duplicates included) declares one
  /// prepare_shared() call with that prefix length; a snapshot is freed
  /// after its last declared consumer has claimed it.  The sweep never
  /// holds more than \p max_pending (>= 1) snapshots that no consumer has
  /// claimed yet; past that it waits for a claim.
  CheckpointPlan(const noise::NoisyExecutor& executor, circ::Circuit base,
                 std::vector<std::size_t> prefix_lens,
                 std::size_t memory_budget_bytes, std::size_t max_pending);

  /// Runs the base sweep of a pipelined plan (once), publishing each
  /// snapshot as soon as it is taken.  Returns true when the base ran to
  /// completion (base_probabilities() is then valid); false when \p cancel
  /// was requested or abort() was called, in which case every waiting
  /// consumer is woken.  A throwing sweep aborts the plan before it
  /// rethrows.
  bool sweep(const util::CancelFlag* cancel = nullptr);

  /// Stops a pipelined plan: the sweep returns false at its next snapshot
  /// and every wait_for_segment() returns false.  Consumers call it when they
  /// stop early on an error, so the sweep never waits on claims that will
  /// not come.
  void abort();

  /// Blocks until the snapshot of \p segment (see segment_of) has been
  /// taken.  Returns false when the plan was aborted.  Segment 0 needs no
  /// snapshot and never blocks.
  bool wait_for_segment(std::size_t segment) const;

  const circ::Circuit& base_circuit() const { return base_; }

  /// The base circuit's exact tape (the splice source; exposed for tests
  /// and for cache keys that want the tape fingerprint).
  const noise::NoiseProgram& base_program() const { return base_stream_.program; }

  /// Engine-level probabilities of the base circuit itself (the sweep runs
  /// it to completion, so the original run comes for free).  For a
  /// pipelined plan, valid once sweep() has returned true.
  const std::vector<double>& base_probabilities() const { return base_probs_; }

  /// Runs \p c — which shares ops [0, prefix_len) with the base circuit —
  /// on \p engine, resuming from the deepest usable snapshot.  Falls back to
  /// a full cold run when the prefix is not provably exact or no snapshot
  /// applies.  Returns the engine probabilities (pre-readout).  Thread-safe;
  /// \p engine is caller-owned scratch (one per worker).
  std::vector<double> run_shared(const circ::Circuit& c,
                                 std::size_t prefix_len,
                                 sim::DensityMatrixEngine& engine) const;

  /// A resumable execution prepared for one derived circuit: the spliced
  /// tape, the tape position to resume at, and the snapshot state to load
  /// first.  `snapshot` shares ownership of the plan's buffer, so it stays
  /// valid after a pipelined plan has released it (and dropping it early
  /// frees a released snapshot early).
  /// The tape and the doubles in *snapshot are everything an interpreter
  /// needs — the multi-process driver serializes exactly this pair to a
  /// worker child, which reproduces run_shared()'s resumed path
  /// bit-for-bit.
  struct PreparedResume {
    noise::NoiseProgram tape;
    std::size_t resume_pos = 0;
    std::shared_ptr<const std::vector<math::cplx>> snapshot;
    /// Index of the snapshot (ascending prefix length): the identity a
    /// cache of its serialization keys on.
    std::size_t checkpoint = 0;
  };

  /// The splice/locate-snapshot front half of run_shared(),
  /// without the execution: nullopt when the prefix is not provably exact
  /// or no snapshot applies (the caller must run \p c cold).  Accounts the
  /// plan's resumed/replayed/fallback stats, so a caller pairing
  /// prepare_shared() with its own interpretation keeps the same counters
  /// as the run_shared() path.  On a pipelined plan each call is one claim
  /// of the snapshot of segment_of(prefix_len) — made even when the splice
  /// falls back — and requires wait_for_segment() to have returned true for
  /// it; claiming more often than declared is an error.  Thread-safe.
  std::optional<PreparedResume> prepare_shared(const circ::Circuit& c,
                                               std::size_t prefix_len) const;

  std::size_t num_checkpoints() const { return checkpoints_.size(); }

  /// Checkpoint *segment* a job with \p prefix_len falls in: 0 when no
  /// snapshot is at or before the fork point (cold segment), k when snapshot
  /// k-1 (0-based, ascending) is the deepest usable one.  The sharded driver
  /// partitions jobs by this id so every job resuming from the same snapshot
  /// lands on the same worker and reloads a cache-warm rho.  Known before
  /// the sweep runs.
  std::size_t segment_of(std::size_t prefix_len) const;

  /// Total segments (num_checkpoints() + 1; segment 0 is the cold segment).
  std::size_t num_segments() const { return checkpoints_.size() + 1; }

  /// Jobs served from a snapshot vs. full cold-run fallbacks (diagnostics).
  struct Stats {
    std::size_t resumed = 0;
    std::size_t replayed_ops = 0;  ///< gap ops re-simulated due to budget
    std::size_t fallbacks = 0;
  };
  Stats stats() const {
    return {resumed_.load(), replayed_ops_.load(), fallbacks_.load()};
  }

 private:
  using Snapshot = std::shared_ptr<const std::vector<math::cplx>>;
  // rho, claims_left and claimed are hand-off state, guarded by mu_.
  struct Checkpoint {
    std::size_t prefix_len = 0;  ///< circuit ops applied before the snapshot
    mutable Snapshot rho;        ///< null until taken (and once released)
    mutable std::size_t claims_left = 0;  ///< declared claims not yet made
    mutable bool claimed = false;         ///< at least one claim made
  };

  const noise::NoisyExecutor& executor_;
  circ::Circuit base_;
  noise::NoisyExecutor::Stream base_stream_;  ///< exact tape + resume records
  std::vector<Checkpoint> checkpoints_;       ///< ascending prefix_len
  std::vector<double> base_probs_;
  bool pipelined_ = true;  ///< false: inline plan, snapshots never released
  const std::size_t max_pending_;

  // Hand-off state between the sweep and the consumers.
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::size_t taken_ = 0;    ///< snapshots published so far
  mutable std::size_t pending_ = 0;  ///< published, no claim yet
  bool swept_ = false;       ///< sweep() has started
  bool aborted_ = false;

  /// Waits for room under max_pending_, then publishes snapshot \p k.
  /// False when the plan was aborted (or \p cancel requested) meanwhile.
  bool publish(const sim::DensityMatrixEngine& engine, std::size_t k,
               const util::CancelFlag* cancel);
  /// One claim of snapshot \p k (see prepare_shared).
  Snapshot claim(std::size_t k) const;

  mutable std::atomic<std::size_t> resumed_{0};
  mutable std::atomic<std::size_t> replayed_ops_{0};
  mutable std::atomic<std::size_t> fallbacks_{0};
};

}  // namespace charter::exec
