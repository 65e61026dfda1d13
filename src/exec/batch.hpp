#pragma once

/// \file batch.hpp
/// Batched execution: the layer between the analysis pipeline and the
/// backend.
///
/// CHARTER-style protocols submit many near-identical circuits per analysis
/// (one reversed circuit per gate).  BatchRunner accepts the whole family as
/// AnalysisJobs and schedules them across a util::ThreadPool sized by
/// BatchOptions::threads — partitioned into checkpoint-segment shards
/// (sharding.hpp), one scratch engine per worker, with every result
/// written by submission index so the reduction order never depends on
/// completion order.  The numbers are bit-identical at every thread count:
/// task bodies run under util::SerialKernels (nested util::parallel_*
/// stay serial), and trajectory averages fold in fixed index-ordered
/// groups.  On top of the scheduling, two accelerations the per-run backend
/// API cannot give:
///
///  - prefix-state checkpointing (checkpoint.hpp): when jobs declare a
///    shared prefix against a base program and the run is exactly
///    reproducible (density-matrix engine, drift == 0), the base is
///    simulated once and every job resumes mid-circuit, simulating only its
///    inserted gates plus the suffix — O(G * avg-suffix) instead of O(G^2)
///    simulated gate-applications.  The plan is pipelined: the
///    coordinating thread sweeps the base (with serial kernels) as the
///    pool's caller task while the shards replay, each shard starting as
///    soon as its snapshot exists; the sweep runs at most one unclaimed
///    snapshot per worker ahead, and a snapshot is freed after its last
///    consumer has claimed it;
///  - run caching (cache.hpp): results are memoized process-wide on
///    (program, device, options), so repeated submissions — bench sweeps,
///    the mitigation workflow's re-analysis — skip the simulator entirely.
///
/// Checkpoint sharing covers the density-matrix engine.  Jobs that cannot
/// share exactly (drifted calibration, differing qubit footprints) and
/// every trajectory job, whether or not it shares a seed with the base,
/// run as independent full runs on the same pool; trajectory full runs fan
/// their unravelling groups out as individual tasks, each a lane batch of
/// up to four unravellings (sim/trajectory.hpp).  Every result, at either
/// tape level, is bit-identical to a standalone FakeBackend::run with the
/// same options.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "exec/cache.hpp"
#include "exec/strategy.hpp"
#include "util/thread_pool.hpp"

namespace charter::exec {

/// One analysis execution: a compiled program plus its run options.
struct AnalysisJob {
  const backend::CompiledProgram* program = nullptr;
  backend::RunOptions run;
  /// Number of leading ops of program->physical that are byte-identical to
  /// the batch's base program (0 = unrelated; insertion-at-i reversed
  /// circuits share i + 1 ops).  Enables checkpoint resumption; sharing is
  /// re-verified at run time, so an over-claim degrades to a full run
  /// rather than a wrong answer.
  std::size_t shared_prefix = 0;
};

/// Execution-strategy knobs.
struct BatchOptions {
  /// Resume density-matrix jobs from prefix-state snapshots when exact
  /// (drift == 0).  Off: every job is an independent full run.  Trajectory
  /// jobs always run in full.
  bool checkpointing = true;
  /// Serve and populate the process-wide RunCache.
  bool caching = true;
  /// Caps the snapshots a batch takes (budget / snapshot size); when the
  /// insertion points outnumber the cap, an evenly spaced subset is kept
  /// and the gaps are replayed.  Snapshots are freed as their consumers
  /// claim them, so far fewer are alive at once.
  std::size_t checkpoint_memory_bytes = 512ull << 20;
  /// Worker-pool width for the sweep: 0 = one worker per hardware thread,
  /// >= 1 = exactly that many workers.  Results are bit-identical at every
  /// value; only wall-clock changes.
  int threads = 0;
  /// Externally owned worker pool to schedule on instead of spawning one
  /// per run() (non-owning; must outlive the runner; `threads` is ignored).
  /// charterd points every tenant's sweeps at one shared pool so the
  /// daemon's concurrency is bounded by a single width knob.  The pool
  /// serves one run() at a time — callers multiplex at job granularity.
  util::ThreadPool* pool = nullptr;
  /// Multi-process sweep sharding: > 0 fans checkpoint-segment shards and
  /// trajectory groups out to that many `charter worker` child processes
  /// over serialized tapes and snapshots (exec/worker.hpp).  0 (default)
  /// keeps everything in-process.  Results are bit-identical at every
  /// worker count — the payloads carry raw double bits and the reduction
  /// stays submission-index-ordered.  A worker that dies mid-shard is
  /// detected and its units are retried in-process, so a sweep always
  /// completes.
  int workers = 0;
  /// Executable to fork+exec as each worker (`<exe> worker --fd N`); the
  /// CLI and charterd pass /proc/self/exe.  Empty: plain fork of the
  /// current image (the library/test path — no binary needed).
  std::string worker_exe;
};

/// Observation and cancellation hooks for one BatchRunner::run call.
struct RunHooks {
  /// Invoked once per job, as its result lands — from pool worker threads
  /// (or the coordinating thread for cache hits), in completion order.
  /// Must be thread-safe; keep it cheap (a counter bump, a cv notify).
  std::function<void(std::size_t job_index)> on_job_complete;
  /// Cooperative cancellation: checked before every job (and threaded into
  /// util::ThreadPool's claim loop, so parked work is never started).  A
  /// requested flag makes run() throw charter::Cancelled after the workers
  /// drain; partial results are discarded and never cached.
  const util::CancelFlag* cancel = nullptr;
};

/// Schedules a family of jobs over one backend.
///
/// Any backend::Backend works.  Checkpoint sharing and the trajectory
/// group fan-out additionally require Backend::supports_lowering(); a
/// backend without it (a custom device wrapper) has every job executed as
/// an independent Backend::run on the pool.  Caching requires
/// Backend::cache_identity(); backends without one simply never hit the
/// RunCache.
class BatchRunner {
 public:
  explicit BatchRunner(const backend::Backend& backend,
                       BatchOptions options = {});

  /// Runs every job and returns the logical distributions in job order.
  /// \p base is the program the jobs' shared_prefix fields refer to
  /// (nullptr disables prefix sharing).  A job whose program *is* \p base
  /// is served from the checkpoint sweep itself.  \p hooks (optional)
  /// observes per-job completion and carries the cancellation flag.
  std::vector<std::vector<double>> run(
      const std::vector<AnalysisJob>& jobs,
      const backend::CompiledProgram* base = nullptr,
      const RunHooks* hooks = nullptr) const;

  /// Diagnostics from the most recent run() (not cumulative).
  struct Stats {
    std::size_t jobs = 0;
    std::size_t cache_hits = 0;  ///< total over both tiers
    /// Tier split of cache_hits: served from the striped memory tier vs
    /// loaded from the persistent disk tier (exec/disk_cache.hpp).  A warm
    /// same-process re-analysis shows memory hits; a warm re-analysis
    /// after a restart shows disk hits.
    std::size_t cache_memory_hits = 0;
    std::size_t cache_disk_hits = 0;
    std::size_t checkpointed = 0;  ///< jobs served via the DM checkpoint plan
    /// Names the retired trajectory checkpoint route: always 0, kept for
    /// report compatibility.
    std::size_t trajectory_checkpointed = 0;
    std::size_t full_runs = 0;     ///< independent full simulations
    /// Checkpoint-eligible jobs whose prefix could not be proven exact at
    /// run time and were re-simulated cold (still correct, just slower).
    std::size_t checkpoint_fallbacks = 0;
    /// Work units (checkpoint resumes, full tapes, trajectory groups)
    /// executed by `charter worker` child processes.  0 when workers == 0.
    std::size_t worker_jobs = 0;
    /// Worker children that died mid-sweep (EOF on the socket + waitpid);
    /// a dead worker is never revived within the run.
    std::size_t worker_failures = 0;
    /// Work units retried in-process after a worker failure or a
    /// structured worker error; the retry reuses the exact prepared
    /// tape/snapshot, so the final report is unchanged.
    std::size_t worker_retried_jobs = 0;
    /// How the executed (non-cache-hit) jobs were classified across the
    /// strategy portfolio (exec/strategy.hpp).  checkpoint_splice counts
    /// DM jobs resumed from a shared prefix snapshot; dm_exact counts full
    /// DM walks.  dm_fused and dm_fused_wide name retired density-matrix
    /// tape levels: they always read 0 and stay for report compatibility.
    struct StrategyCount {
      std::size_t dm_exact = 0;
      std::size_t dm_fused = 0;
      std::size_t dm_fused_wide = 0;
      std::size_t trajectory = 0;
      std::size_t checkpoint_splice = 0;
    };
    StrategyCount strategy_jobs;
    /// Summed wall-clock of the executed (non-cache-hit) routes.  Timing is
    /// taken on the coordinating thread around each route — it never
    /// touches the numerics — and is inherently machine-dependent, so it is
    /// excluded from fixture and bit-identity comparisons.
    double actual_ns = 0.0;
    /// Adaptive early-termination accounting.  BatchRunner itself always
    /// runs fixed budgets; the analyzer merges these in from
    /// run_adaptive_trajectory_sweep when BudgetMode::kAdaptive is active,
    /// so under the default kFixedBudget all three stay 0.
    std::size_t trajectories_budgeted = 0;
    std::size_t trajectories_executed = 0;
    std::size_t gates_settled_early = 0;
  };
  Stats last_stats() const { return stats_; }

  const BatchOptions& options() const { return options_; }

 private:
  const backend::Backend& backend_;
  BatchOptions options_;
  mutable Stats stats_;  // written only by the coordinating thread
};

}  // namespace charter::exec
