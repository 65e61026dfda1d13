#pragma once

/// \file scheduler.hpp
/// Fair-share job scheduling for charterd.
///
/// Many tenants share one daemon and one worker pool.  A FIFO queue lets
/// a tenant that bulk-submits 100 circuits starve everyone behind it for
/// minutes; this scheduler instead keeps a deque per tenant and a
/// round-robin ring across tenants, picking the *next tenant's oldest
/// job* each time a slot frees.  Two tenants submitting N jobs each see
/// their work interleave A1 B1 A2 B2 ... regardless of submission order,
/// and a new tenant's first job waits at most (tenants - 1) job
/// durations, not the whole backlog.
///
/// Jobs execute one at a time, in ring order, on a single dispatcher
/// thread — but each job's sweep fans out across the shared
/// util::ThreadPool (exec::BatchOptions::pool), so the daemon's total
/// concurrency is exactly the pool width no matter how many tenants are
/// connected.  Running jobs serially is what makes the fairness
/// guarantee crisp (the ring decides every next job) and keeps peak
/// memory at one sweep's working set.
///
/// Admission control lives at submit(): past the queued-job cap the
/// scheduler throws ProtocolError(kQueueFull) instead of buffering
/// unboundedly, and during a drain it throws kShuttingDown.  Both reach
/// clients as structured errors, not disconnects.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "characterize/characterize.hpp"
#include "core/analyzer.hpp"
#include "exec/strategy.hpp"
#include "service/protocol.hpp"
#include "util/thread_pool.hpp"

namespace charter::service {

/// Lifecycle of a scheduled job (same vocabulary as charter::JobStatus,
/// kept separate so the service layer does not depend on the facade).
enum class JobPhase { kQueued, kRunning, kDone, kCancelled, kFailed };

/// Wire name ("queued", "running", "done", "cancelled", "failed").
const char* job_phase_name(JobPhase phase);

inline bool is_terminal(JobPhase phase) {
  return phase == JobPhase::kDone || phase == JobPhase::kCancelled ||
         phase == JobPhase::kFailed;
}

/// Point-in-time snapshot of one job, safe to read after the scheduler
/// moves on.
struct JobSnapshot {
  std::uint64_t id = 0;
  std::string tenant;
  JobPhase phase = JobPhase::kQueued;
  std::size_t completed = 0;  ///< circuit executions finished
  std::size_t total = 0;      ///< executions the sweep will perform
  bool detached = false;
  /// True for characterize jobs (analysis + germ-ladder estimation);
  /// their fetch payload is a CharacterizationReport, not a CharterReport.
  bool characterize = false;
  std::string error;  ///< meaningful when phase == kFailed
};

struct SchedulerOptions {
  /// Shared worker-pool width (0 = one worker per hardware thread).
  int threads = 0;
  /// Admission cap: jobs admitted but not yet terminal.
  std::size_t max_queued_jobs = 64;
  /// Start with dispatching suspended (tests build a deterministic
  /// backlog, then release it with set_paused(false)).
  bool start_paused = false;
};

/// Multi-tenant fair-share scheduler over one backend and one pool.
class Scheduler {
 public:
  /// Terminal (done, cancelled, failed) jobs kept for status and fetch.
  /// Past this many, the oldest terminal job is evicted and its id answers
  /// kNotFound.  Queued and running jobs are never evicted.
  static constexpr std::size_t kRetainedJobs = 1024;

  /// \p backend must outlive the scheduler.
  Scheduler(const backend::Backend& backend, SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits one analysis job.  \p options is the fully resolved
  /// configuration for this job (the scheduler overrides only the
  /// execution pool).  \p connection is the submitting connection's id;
  /// non-detached jobs are cancelled when it closes.  Returns the job id.
  /// Throws ProtocolError(kQueueFull | kShuttingDown) on admission
  /// failure.
  /// \p characterize_top_k > 0 turns the job into a characterize job: the
  /// analysis runs first (same scheduling slot), then the top-k gates of
  /// its ranking are characterized; fetch serves the
  /// CharacterizationReport.  0 (default) is a plain analysis job.
  std::uint64_t submit(const std::string& tenant,
                       backend::CompiledProgram program,
                       core::CharterOptions options, bool detached,
                       std::uint64_t connection, int characterize_top_k = 0);

  /// Snapshot of one job; throws ProtocolError(kNotFound) for unknown and
  /// evicted ids.
  JobSnapshot snapshot(std::uint64_t id) const;

  /// Blocks until the job is terminal, then returns its snapshot.
  JobSnapshot await(std::uint64_t id) const;

  /// The finished report; requires phase == kDone (kNotFound otherwise,
  /// with a message saying what state the job is actually in).
  core::CharterReport report(std::uint64_t id) const;

  /// The finished characterization of a characterize job; kNotFound when
  /// the job is not done or is a plain analysis job.
  characterize::CharacterizationReport characterization(
      std::uint64_t id) const;

  /// Requests cooperative cancellation.  True when the request landed on
  /// a non-terminal job (queued jobs resolve to kCancelled without
  /// running; the running job stops at its next execution boundary).
  bool cancel(std::uint64_t id);

  /// Cancels every non-detached job submitted over \p connection.  The
  /// server calls this when a client hangs up: abandoned sweeps stop
  /// burning the pool, and their partial results are never cached.
  void connection_closed(std::uint64_t connection);

  /// Cumulative counters since construction.
  struct Stats {
    std::size_t submitted = 0;
    std::size_t done = 0;
    std::size_t cancelled = 0;
    std::size_t failed = 0;
    std::size_t queued = 0;   ///< currently waiting
    std::size_t running = 0;  ///< 0 or 1 (jobs run serially by design)
    std::size_t tenants = 0;  ///< tenants with queued work right now
  };
  Stats stats() const;

  /// Suspends/resumes dispatching.  Pausing never interrupts the running
  /// job; it only stops the next pick.
  void set_paused(bool paused);

  /// Stops admissions (subsequent submit() throws kShuttingDown).
  /// Already-admitted jobs still run to completion — a drain honors the
  /// work it accepted.  Idempotent, safe from any thread, including a
  /// connection thread that just handled a shutdown request.
  void request_drain();

  /// Blocks until every admitted job is terminal and the dispatcher has
  /// exited.  Call after request_drain(); returns immediately if already
  /// drained.
  void wait_until_drained();

  bool draining() const;

  /// The shared pool (exposed so the daemon can report its width).
  util::ThreadPool& pool() { return pool_; }

  /// Test/observability hook: invoked from the dispatcher thread
  /// immediately before a job starts running, in dispatch order.  Set
  /// before the first submit; not synchronized afterwards.
  std::function<void(const JobSnapshot&)> on_job_start;

 private:
  struct Job;

  void dispatcher_main();
  std::shared_ptr<Job> pick_next_locked();
  /// Runs \p job and returns its terminal phase; finish() publishes it.
  JobPhase run_job(Job& job);
  /// Counts and retires \p job, then makes \p terminal its visible phase.
  void finish(Job& job, JobPhase terminal);
  std::shared_ptr<Job> find(std::uint64_t id) const;
  /// Records that \p id reached a terminal phase and evicts the oldest
  /// terminal job past kRetainedJobs.  Caller holds mu_.
  void retire_locked(std::uint64_t id);

  const backend::Backend& backend_;
  const SchedulerOptions options_;
  util::ThreadPool pool_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;        ///< dispatcher wake-ups
  mutable std::condition_variable drained_cv_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;  // under mu_
  std::deque<std::uint64_t> retired_;  ///< terminal ids, oldest first
  std::map<std::string, std::deque<std::shared_ptr<Job>>> pending_;
  std::vector<std::string> ring_;  ///< tenants with pending work
  std::size_t cursor_ = 0;         ///< next ring slot to serve
  std::shared_ptr<Job> running_;   // under mu_
  std::uint64_t next_id_ = 1;
  Stats stats_;  // under mu_ (queued/running/tenants derived)
  bool paused_ = false;
  bool draining_ = false;
  bool stopped_ = false;  ///< destructor: abandon queued work
  std::thread dispatcher_;
};

}  // namespace charter::service
