#include "service/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace charter::service {

const char* job_phase_name(JobPhase phase) {
  switch (phase) {
    case JobPhase::kQueued: return "queued";
    case JobPhase::kRunning: return "running";
    case JobPhase::kDone: return "done";
    case JobPhase::kCancelled: return "cancelled";
    case JobPhase::kFailed: return "failed";
  }
  return "unknown";
}

/// Everything the dispatcher, the registry, and waiting connection
/// threads share about one job.  Phase/progress/result are guarded by the
/// per-job mutex so snapshot() never contends with the scheduler lock
/// while a sweep runs.
struct Scheduler::Job {
  std::uint64_t id = 0;
  std::string tenant;
  backend::CompiledProgram program;  ///< moved out when the job starts
  core::CharterOptions options;
  bool detached = false;
  int characterize_top_k = 0;  ///< > 0: characterize after the analysis
  std::uint64_t connection = 0;
  util::CancelFlag cancel;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  JobPhase phase = JobPhase::kQueued;  // under mu
  std::size_t completed = 0;           // under mu
  std::size_t total = 0;               // under mu
  core::CharterReport result;          ///< written before the terminal
                                       ///< transition; immutable afterwards
  characterize::CharacterizationReport characterization;  ///< same contract
  std::string error;                   // under mu

  Job(backend::CompiledProgram p, core::CharterOptions o)
      : program(std::move(p)), options(std::move(o)) {}

  JobSnapshot snapshot_locked() const {
    JobSnapshot s;
    s.id = id;
    s.tenant = tenant;
    s.phase = phase;
    s.completed = completed;
    s.total = total;
    s.detached = detached;
    s.characterize = characterize_top_k > 0;
    s.error = error;
    return s;
  }

  JobSnapshot snapshot() const {
    const std::lock_guard<std::mutex> lock(mu);
    return snapshot_locked();
  }
};

void Scheduler::finish(Job& job, JobPhase terminal) {
  {
    // mu_ before job.mu, the dispatcher's order: the job turns terminal,
    // which wakes await(), only once it is retired and counted.
    const std::lock_guard<std::mutex> lock(mu_);
    switch (terminal) {
      case JobPhase::kDone: ++stats_.done; break;
      case JobPhase::kCancelled: ++stats_.cancelled; break;
      case JobPhase::kFailed: ++stats_.failed; break;
      default: break;
    }
    retire_locked(job.id);
    running_ = nullptr;
    const std::lock_guard<std::mutex> job_lock(job.mu);
    job.phase = terminal;
  }
  job.cv.notify_all();
  drained_cv_.notify_all();
}

Scheduler::Scheduler(const backend::Backend& backend,
                     SchedulerOptions options)
    : backend_(backend),
      options_(options),
      pool_(util::resolve_threads(options.threads)),
      paused_(options.start_paused) {
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

Scheduler::~Scheduler() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    draining_ = true;
    paused_ = false;
    // Queued jobs resolve to kCancelled without running; the in-flight
    // one sees its flag at the next execution boundary.
    for (auto& [tenant, queue] : pending_)
      for (const auto& job : queue) job->cancel.request();
    if (running_ != nullptr) running_->cancel.request();
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::uint64_t Scheduler::submit(const std::string& tenant,
                                backend::CompiledProgram program,
                                core::CharterOptions options, bool detached,
                                std::uint64_t connection,
                                int characterize_top_k) {
  auto job = std::make_shared<Job>(std::move(program), std::move(options));
  job->tenant = tenant;
  job->detached = detached;
  job->characterize_top_k = characterize_top_k;
  job->connection = connection;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (draining_)
      throw ProtocolError(ErrorCode::kShuttingDown,
                          "daemon is draining; submit rejected");
    std::size_t queued = 0;
    for (const auto& [name, queue] : pending_) queued += queue.size();
    if (queued >= options_.max_queued_jobs)
      throw ProtocolError(
          ErrorCode::kQueueFull,
          "admission limit reached: " +
              std::to_string(options_.max_queued_jobs) +
              " jobs already queued; retry after some finish");
    job->id = next_id_++;
    jobs_.emplace(job->id, job);
    auto [it, inserted] = pending_.try_emplace(tenant);
    if (inserted) ring_.push_back(tenant);  // new tenant joins behind cursor
    it->second.push_back(job);
    ++stats_.submitted;
  }
  cv_.notify_all();
  return job->id;
}

std::shared_ptr<Scheduler::Job> Scheduler::find(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) return it->second;
  // Ids are assigned in order and leave jobs_ only by eviction.
  if (id >= 1 && id < next_id_)
    throw ProtocolError(ErrorCode::kNotFound,
                        "job " + std::to_string(id) +
                            " was evicted: only the " +
                            std::to_string(kRetainedJobs) +
                            " most recently finished jobs are kept");
  throw ProtocolError(ErrorCode::kNotFound,
                      "no job with id " + std::to_string(id));
}

void Scheduler::retire_locked(std::uint64_t id) {
  retired_.push_back(id);
  if (retired_.size() <= kRetainedJobs) return;
  jobs_.erase(retired_.front());
  retired_.pop_front();
}

JobSnapshot Scheduler::snapshot(std::uint64_t id) const {
  return find(id)->snapshot();
}

JobSnapshot Scheduler::await(std::uint64_t id) const {
  const std::shared_ptr<Job> job = find(id);
  std::unique_lock<std::mutex> lock(job->mu);
  job->cv.wait(lock, [&] { return is_terminal(job->phase); });
  return job->snapshot_locked();
}

core::CharterReport Scheduler::report(std::uint64_t id) const {
  const std::shared_ptr<Job> job = find(id);
  const std::lock_guard<std::mutex> lock(job->mu);
  if (job->phase != JobPhase::kDone)
    throw ProtocolError(ErrorCode::kNotFound,
                        "job " + std::to_string(id) + " has no report (" +
                            job_phase_name(job->phase) + ")");
  return job->result;
}

characterize::CharacterizationReport Scheduler::characterization(
    std::uint64_t id) const {
  const std::shared_ptr<Job> job = find(id);
  const std::lock_guard<std::mutex> lock(job->mu);
  if (job->characterize_top_k <= 0)
    throw ProtocolError(ErrorCode::kNotFound,
                        "job " + std::to_string(id) +
                            " is an analysis job, not a characterization");
  if (job->phase != JobPhase::kDone)
    throw ProtocolError(ErrorCode::kNotFound,
                        "job " + std::to_string(id) +
                            " has no characterization (" +
                            job_phase_name(job->phase) + ")");
  return job->characterization;
}

bool Scheduler::cancel(std::uint64_t id) {
  const std::shared_ptr<Job> job = find(id);
  {
    const std::lock_guard<std::mutex> lock(job->mu);
    if (is_terminal(job->phase)) return false;
  }
  job->cancel.request();
  cv_.notify_all();  // wake the dispatcher so a queued cancel resolves now
  return true;
}

void Scheduler::connection_closed(std::uint64_t connection) {
  std::vector<std::shared_ptr<Job>> doomed;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, job] : jobs_)
      if (!job->detached && job->connection == connection)
        doomed.push_back(job);
  }
  for (const auto& job : doomed) {
    const std::lock_guard<std::mutex> lock(job->mu);
    if (!is_terminal(job->phase)) job->cancel.request();
  }
  if (!doomed.empty()) cv_.notify_all();
}

Scheduler::Stats Scheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.queued = 0;
  s.tenants = 0;
  for (const auto& [name, queue] : pending_) {
    s.queued += queue.size();
    if (!queue.empty()) ++s.tenants;
  }
  s.running = running_ != nullptr ? 1 : 0;
  return s;
}

void Scheduler::set_paused(bool paused) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  cv_.notify_all();
}

void Scheduler::request_drain() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    paused_ = false;  // a paused drain would never finish
  }
  cv_.notify_all();
}

void Scheduler::wait_until_drained() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [&] {
      return draining_ && running_ == nullptr &&
             std::all_of(pending_.begin(), pending_.end(),
                         [](const auto& kv) { return kv.second.empty(); });
    });
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

bool Scheduler::draining() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

/// Round-robin pick: the cursor's tenant serves its oldest job, then the
/// cursor advances, so consecutive picks rotate across every tenant with
/// pending work.  Tenants whose queues drain leave the ring (and rejoin
/// at the back on their next submit).  Caller holds mu_.
std::shared_ptr<Scheduler::Job> Scheduler::pick_next_locked() {
  while (!ring_.empty()) {
    if (cursor_ >= ring_.size()) cursor_ = 0;
    auto it = pending_.find(ring_[cursor_]);
    if (it == pending_.end() || it->second.empty()) {
      // Lazily unlink a drained tenant; the cursor now points at its
      // successor, so no rotation is skipped.
      if (it != pending_.end()) pending_.erase(it);
      ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(cursor_));
      continue;
    }
    std::shared_ptr<Job> job = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) {
      pending_.erase(it);
      ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    } else {
      ++cursor_;
    }
    return job;
  }
  return nullptr;
}

void Scheduler::dispatcher_main() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        if (stopped_) return true;
        if (paused_) return false;
        return !ring_.empty() || draining_;
      });
      job = paused_ && !stopped_ ? nullptr : pick_next_locked();
      if (job == nullptr) {
        if (draining_ || stopped_) {
          drained_cv_.notify_all();
          return;
        }
        continue;
      }
      running_ = job;
    }

    if (job->cancel.requested()) {
      finish(*job, JobPhase::kCancelled);
      continue;
    }

    if (on_job_start) on_job_start(job->snapshot());
    finish(*job, run_job(*job));
  }
}

JobPhase Scheduler::run_job(Job& job) {
  // The job owns its compiled program only while it runs.  Finished jobs
  // stay in jobs_ for status/fetch (up to kRetainedJobs of them), and every
  // retained circuit would grow the daemon by a few KiB per job.
  const backend::CompiledProgram program = std::move(job.program);
  {
    const std::lock_guard<std::mutex> lock(job.mu);
    job.phase = JobPhase::kRunning;  // await() waits for a terminal phase
  }

  core::AnalysisHooks hooks;
  hooks.cancel = &job.cancel;
  hooks.on_progress = [&job](std::size_t completed, std::size_t total) {
    const std::lock_guard<std::mutex> lock(job.mu);
    job.completed = completed;
    job.total = total;
  };

  // Every tenant's sweep fans out on the one shared pool; the per-job
  // thread knob is overridden so a client cannot widen the daemon.
  core::CharterOptions options = job.options;
  options.exec.pool = &pool_;
  options.exec.threads = 0;

  try {
    const core::CharterAnalyzer analyzer(backend_, options);
    job.result = analyzer.analyze(program, &hooks);
    if (job.characterize_top_k > 0) {
      // Same slot, same pool: the ranking the
      // analysis just produced feeds straight into the germ ladders, so a
      // characterize job costs its tenant exactly one ring turn.
      characterize::CharacterizeOptions copts;
      copts.top_k = job.characterize_top_k;
      copts.isolate = options.isolate;
      copts.severity_reversals = options.reversals;
      copts.common_random_numbers = true;
      copts.run = options.run;
      copts.exec = options.exec;
      copts.strategy = options.strategy;
      const characterize::GateCharacterizer characterizer(backend_, copts);
      job.characterization =
          characterizer.characterize(program, job.result, &hooks);
    }
    return JobPhase::kDone;
  } catch (const Cancelled&) {
    return JobPhase::kCancelled;
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(job.mu);
    job.error = e.what();
    return JobPhase::kFailed;
  }
}

}  // namespace charter::service
