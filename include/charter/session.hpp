#pragma once

/// \file charter/session.hpp
/// The public charter facade: a Session owns a device (any
/// backend::Backend) plus a validated SessionConfig and serves analysis
/// *jobs* — submit() returns immediately with a JobHandle carrying
/// progress callbacks, streamed per-gate impacts, cooperative
/// cancellation, and a future-style wait() for the finished
/// core::CharterReport.
///
/// The facade adds service semantics, never numerics: a Session report is
/// bit-identical to driving core::CharterAnalyzer directly with the same
/// configuration, at every worker-pool width.
///
/// Quickstart:
///
///   const auto backend = charter::backend::FakeBackend::lagos();
///   charter::Session session(
///       backend, charter::SessionConfig().shots(8192).seed(42));
///   const auto program = session.compile(circuit);
///   charter::JobHandle job = session.submit(program);
///   const charter::JobResult& done = job.wait();   // done.report
///
/// Jobs execute in submission order on one session worker thread; each
/// job's sweep fans out across its own exec-layer worker pool sized by
/// ExecutionConfig::threads.  JobHandles are cheap shared references: they
/// stay valid after the Session is destroyed (the destructor cancels
/// queued jobs, flags the running one, and joins).

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "characterize/characterize.hpp"
#include "core/analyzer.hpp"
#include "exec/cache.hpp"
#include "exec/strategy.hpp"
#include "util/thread_pool.hpp"

namespace charter {

/// Builder-style *execution* configuration: every knob that shapes how a
/// sweep runs (parallelism, caching, checkpointing, and the execution
/// strategy) without changing what it computes.  Lives inside
/// SessionConfig as SessionConfig::execution().
///
///   charter::SessionConfig cfg;
///   cfg.shots(8192).seed(42);
///   cfg.execution()
///       .threads(8)
///       .strategy(charter::exec::StrategyKind::kDmExact);
///
/// Validation happens through SessionConfig::validate() — ExecutionConfig
/// carries no invariants of its own beyond what the session checks.
class ExecutionConfig {
 public:
  // -- parallelism --------------------------------------------------------
  /// Worker-pool width per job sweep: 0 = one worker per hardware thread.
  /// Results are bit-identical at every value; only wall-clock changes.
  ExecutionConfig& threads(int n) { threads_ = n; return *this; }
  /// Multi-process sweep sharding: > 0 fans each sweep's checkpoint shards
  /// and trajectory groups out to that many `charter worker` child
  /// processes over serialized tapes/snapshots.  0 (default) keeps
  /// execution in-process.  Reports stay bit-identical at every worker
  /// count, and a worker killed mid-sweep is retried in-process.
  ExecutionConfig& workers(int n) { workers_ = n; return *this; }
  /// Executable to fork+exec as each worker (`<exe> worker --fd N`); the
  /// CLI and charterd pass their own binary.  Empty (default): plain fork
  /// of the current process image.  Only meaningful with workers > 0.
  ExecutionConfig& worker_exe(std::string exe) {
    worker_exe_ = std::move(exe);
    return *this;
  }

  // -- variance reduction -------------------------------------------------
  /// Share one seed across the original and every reversed run
  /// (common-random-numbers variance reduction).  Changes the numbers, not
  /// the execution route.
  ExecutionConfig& common_random_numbers(bool on) { crn_ = on; return *this; }

  // -- checkpointing / caching --------------------------------------------
  /// Resume density-matrix jobs from prefix-state snapshots when exact
  /// (drift == 0; needs a backend with supports_lowering()).  Trajectory
  /// jobs always run in full.
  ExecutionConfig& checkpointing(bool on) { checkpointing_ = on; return *this; }
  /// Serve and populate the process-wide run cache (needs a backend with
  /// a cache identity).
  ExecutionConfig& caching(bool on) { caching_ = on; return *this; }
  /// Snapshot memory budget per batch.
  ExecutionConfig& checkpoint_memory_bytes(std::size_t n) {
    checkpoint_memory_bytes_ = n;
    return *this;
  }
  /// Attach a persistent disk tier to the process-wide run cache, rooted
  /// at \p dir (created if missing; empty = memory-only, the default).
  /// Entries are fingerprint-keyed, checksummed on load, and survive
  /// process restarts.  The tier is process-wide state: the last Session
  /// (or tool) to set it wins.
  ExecutionConfig& cache_dir(std::string dir) {
    cache_dir_ = std::move(dir);
    return *this;
  }
  /// Disk-tier byte budget; least-recently-used entries are evicted past
  /// it.  Only meaningful with a non-empty cache_dir.
  ExecutionConfig& cache_disk_bytes(std::size_t n) {
    cache_disk_bytes_ = n;
    return *this;
  }

  // -- strategy portfolio (exec/strategy.hpp) -----------------------------
  /// Execution strategy for every sweep.  kAuto (default): the static
  /// rule (exec::plan_family) — the engine SessionConfig::engine()
  /// resolves to (density matrix while the compacted program fits,
  /// trajectories past the cap) with the exact tape.  A fixed kind
  /// (kDmExact, kTrajectory) overrides the engine for every run.
  ExecutionConfig& strategy(exec::StrategyKind kind) {
    strategy_ = kind;
    return *this;
  }
  /// Adaptive trajectory budgets: stop allocating unravelling groups to a
  /// gate once its impact confidence interval separates from its rank
  /// neighbors.  Off (default) = BudgetMode::kFixedBudget, the mode the
  /// bit-identity contract is stated under; savings appear in
  /// exec_stats.trajectories_executed vs trajectories_budgeted.
  ExecutionConfig& adaptive(bool on) { adaptive_ = on; return *this; }

  // -- getters ------------------------------------------------------------
  int threads() const { return threads_; }
  int workers() const { return workers_; }
  const std::string& worker_exe() const { return worker_exe_; }
  bool common_random_numbers() const { return crn_; }
  bool checkpointing() const { return checkpointing_; }
  bool caching() const { return caching_; }
  std::size_t checkpoint_memory_bytes() const {
    return checkpoint_memory_bytes_;
  }
  const std::string& cache_dir() const { return cache_dir_; }
  std::size_t cache_disk_bytes() const { return cache_disk_bytes_; }
  exec::StrategyKind strategy() const { return strategy_; }
  bool adaptive() const { return adaptive_; }

 private:
  int threads_ = 0;
  int workers_ = 0;
  std::string worker_exe_;
  bool crn_ = false;
  bool checkpointing_ = true;
  bool caching_ = true;
  std::size_t checkpoint_memory_bytes_ = 512ull << 20;
  std::string cache_dir_;
  std::size_t cache_disk_bytes_ = 1ull << 30;
  exec::StrategyKind strategy_ = exec::StrategyKind::kAuto;
  bool adaptive_ = false;
};

/// Validated, builder-style session configuration: the analysis protocol
/// and per-run physics stay flat here; everything about *how* sweeps
/// execute lives in the nested ExecutionConfig (execution()).  Every
/// setter returns *this for chaining; validate() reports *actionable*
/// errors instead of silent fallbacks, and Session's constructor throws
/// InvalidArgument listing them all.
class SessionConfig {
 public:
  // -- analysis protocol (paper Sec. IV) ----------------------------------
  /// Reversed pairs per gate; the paper settles on 5.
  SessionConfig& reversals(int n) { reversals_ = n; return *this; }
  /// Skip virtual RZ gates (free on hardware; on by default).
  SessionConfig& skip_rz(bool on) { skip_rz_ = on; return *this; }
  /// Barrier-isolate reversed pairs (paper Fig. 5; on by default).
  SessionConfig& isolate(bool on) { isolate_ = on; return *this; }
  /// Analyze at most this many gates, subsampled evenly (0 = all).
  SessionConfig& max_gates(int n) { max_gates_ = n; return *this; }
  /// Also compute the ideal distribution and per-gate TVD vs ideal
  /// (validation only — not part of the technique).
  SessionConfig& validation(bool on) { validation_ = on; return *this; }
  // -- per-run execution --------------------------------------------------
  /// Shots to sample; 0 returns the exact engine-level distribution.
  SessionConfig& shots(std::int64_t n) { shots_ = n; return *this; }
  /// Simulation engine (kAuto: density matrix when it fits).
  SessionConfig& engine(backend::EngineKind kind) { engine_ = kind; return *this; }
  /// Trajectory count when the trajectory engine is used.
  SessionConfig& trajectories(int n) { trajectories_ = n; return *this; }
  /// Master seed for drift, trajectory branching, and shot sampling.
  SessionConfig& seed(std::uint64_t s) { seed_ = s; return *this; }
  /// Calibration drift magnitude per run (0 disables).
  SessionConfig& drift(double d) { drift_ = d; return *this; }

  // -- execution ----------------------------------------------------------
  /// The nested execution configuration: parallelism, caching,
  /// checkpointing, and the execution strategy.
  /// Mutable access chains naturally:
  ///   cfg.execution().threads(8).strategy(exec::StrategyKind::kAuto);
  ExecutionConfig& execution() { return exec_; }
  const ExecutionConfig& execution() const { return exec_; }
  /// Whole-object setter for builder-style one-liners:
  ///   SessionConfig().shots(1024).execution(ExecutionConfig().threads(4))
  SessionConfig& execution(ExecutionConfig exec) {
    exec_ = std::move(exec);
    return *this;
  }

  // -- getters ------------------------------------------------------------
  int reversals() const { return reversals_; }
  bool skip_rz() const { return skip_rz_; }
  bool isolate() const { return isolate_; }
  int max_gates() const { return max_gates_; }
  bool validation() const { return validation_; }
  std::int64_t shots() const { return shots_; }
  backend::EngineKind engine() const { return engine_; }
  int trajectories() const { return trajectories_; }
  std::uint64_t seed() const { return seed_; }
  double drift() const { return drift_; }

  /// Checks every knob and returns one actionable message per problem
  /// (empty = valid).  Session's constructor calls this and throws
  /// InvalidArgument with the joined list, so a misconfigured session
  /// fails at construction, not mid-sweep.
  std::vector<std::string> validate() const;

  /// Lossless mapping onto the layered option structs the pipeline
  /// consumes.  Requires validate().empty().
  core::CharterOptions resolved() const;

 private:
  int reversals_ = 5;
  bool skip_rz_ = true;
  bool isolate_ = true;
  int max_gates_ = 0;
  bool validation_ = false;
  std::int64_t shots_ = 4096;
  backend::EngineKind engine_ = backend::EngineKind::kAuto;
  int trajectories_ = 48;
  std::uint64_t seed_ = 1;
  double drift_ = 0.0;
  ExecutionConfig exec_;
};

/// Lifecycle of a submitted job.  Terminal states: kDone, kCancelled,
/// kFailed.
enum class JobStatus { kQueued, kRunning, kDone, kCancelled, kFailed };

/// Lower-case name ("queued", "running", ...) for logs and JSON output.
std::string to_string(JobStatus status);

/// What a job computes.
enum class JobKind {
  kAnalyze,       ///< full per-gate sweep -> CharterReport
  kInputImpact,   ///< input-block reversal -> one TVD
  kCharacterize,  ///< germ-ladder estimation -> CharacterizationReport
};

/// Monotone progress snapshot: \p completed circuit executions out of
/// \p total (the original run plus one reversed circuit per analyzed
/// gate; 2 for input-impact jobs).
struct JobProgress {
  std::size_t completed = 0;
  std::size_t total = 0;
};

/// Final outcome of a job.  `report` is meaningful for kAnalyze jobs that
/// reached kDone (and carries its own exec stats in report.exec_stats);
/// `input_tvd` for kInputImpact jobs; `characterization` for
/// kCharacterize jobs; `error` for kFailed.
struct JobResult {
  JobKind kind = JobKind::kAnalyze;
  JobStatus status = JobStatus::kQueued;
  core::CharterReport report;
  double input_tvd = 0.0;
  characterize::CharacterizationReport characterization;
  std::string error;
};

/// Optional per-job callbacks.  Both fire while the job runs: on_progress
/// from exec worker threads (serialized, strictly monotone in completed),
/// on_impact from the job's coordinating thread in deterministic
/// submission order (ascending op_index).  Callbacks must not block; they
/// may call JobHandle::cancel().
struct JobCallbacks {
  std::function<void(const JobProgress&)> on_progress;
  std::function<void(const core::GateImpact&)> on_impact;
};

namespace detail {
struct JobState;
}  // namespace detail

/// Shared, copyable reference to one submitted job.  Outlives the Session
/// safely.
class JobHandle {
 public:
  JobHandle() = default;  ///< invalid handle

  bool valid() const { return state_ != nullptr; }
  /// Session-unique id (1, 2, ... in submission order).
  std::uint64_t id() const;
  JobKind kind() const;
  JobStatus status() const;
  JobProgress progress() const;

  /// Requests cooperative cancellation: workers stop claiming runs at the
  /// next job boundary and the result resolves to kCancelled.  No-op on a
  /// finished job.  Safe from any thread, including the job's own
  /// callbacks.
  void cancel() const;

  /// Blocks until the job reaches a terminal state and returns the
  /// result (valid for the life of this handle).
  const JobResult& wait() const;

  /// Waits up to \p timeout; true when the job is terminal.
  bool wait_for(std::chrono::milliseconds timeout) const;

 private:
  friend class Session;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

/// The public charter service facade: one device + one validated
/// configuration -> asynchronous analysis jobs.
///
/// Thread-safety: submit/analyze/input_impact/compile may be called from
/// any thread.  Jobs execute strictly in submission order on the
/// session's worker thread; each sweep parallelizes internally across
/// ExecutionConfig::threads exec workers.  Destroying the session cancels
/// queued jobs, flags the in-flight one, and joins — handles already
/// returned stay valid and resolve (to kCancelled if interrupted).
class Session {
 public:
  /// Non-owning: \p backend must outlive the session.
  explicit Session(const backend::Backend& backend, SessionConfig config = {});
  /// Owning.
  explicit Session(std::shared_ptr<const backend::Backend> backend,
                   SessionConfig config = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const backend::Backend& backend() const { return *backend_; }
  const SessionConfig& config() const { return config_; }

  /// Compiles a logical circuit on the session's device.
  backend::CompiledProgram compile(
      const circ::Circuit& logical,
      const transpile::TranspileOptions& options = {}) const;

  /// Enqueues a full per-gate analysis of \p program and returns
  /// immediately.  The program is captured by value: the caller may drop
  /// or mutate its copy freely.
  JobHandle submit(backend::CompiledProgram program,
                   JobCallbacks callbacks = {});

  /// Enqueues an input-block reversal impact computation (paper Sec. V).
  JobHandle submit_input_impact(backend::CompiledProgram program,
                                JobCallbacks callbacks = {});

  /// Enqueues error-channel characterization of the top-\p top_k gates of
  /// \p charter (a finished analysis of \p program — op indices and gate
  /// kinds are cross-checked).  Germ ladders, decay fits, and bootstrap
  /// CIs run with the session's execution configuration; characterization
  /// always uses common random numbers (the decay curve is a
  /// within-experiment comparison) and a fixed trajectory budget.
  JobHandle submit_characterization(backend::CompiledProgram program,
                                    core::CharterReport charter,
                                    int top_k = 3, JobCallbacks callbacks = {});

  /// Synchronous conveniences: submit + wait, rethrowing failures.
  core::CharterReport analyze(const backend::CompiledProgram& program);
  double input_impact(const backend::CompiledProgram& program);
  characterize::CharacterizationReport characterize(
      const backend::CompiledProgram& program,
      const core::CharterReport& charter, int top_k = 3);

  /// Requests cancellation of every queued and running job.
  void cancel_all();

  /// Jobs submitted but not yet terminal (queued + running).
  std::size_t outstanding_jobs() const;

  /// Snapshot of the process-wide run cache (both tiers).  Static because
  /// the cache is shared across every Session in the process — per-job
  /// tier splits live in CharterReport::exec_stats instead.
  static exec::RunCache::Stats cache_stats();

 private:
  JobHandle enqueue(JobKind kind, backend::CompiledProgram program,
                    JobCallbacks callbacks, core::CharterReport charter = {},
                    int top_k = 0);
  characterize::CharacterizeOptions characterization_options(int top_k) const;
  void worker_main();
  void run_job(detail::JobState& job);

  std::shared_ptr<const backend::Backend> backend_;
  SessionConfig config_;
  core::CharterOptions options_;  ///< config_.resolved(), computed once

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<detail::JobState>> queue_;  // under mu_
  std::shared_ptr<detail::JobState> running_;            // under mu_
  std::uint64_t next_id_ = 1;                            // under mu_
  bool closed_ = false;                                  // under mu_
  std::thread worker_;  ///< runs jobs in submission order
};

}  // namespace charter
