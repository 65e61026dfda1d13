#include "exec/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "exec/checkpoint.hpp"
#include "exec/sharding.hpp"
#include "exec/trajectory_plan.hpp"
#include "exec/worker.hpp"
#include "noise/executor.hpp"
#include "noise/serialize.hpp"
#include "sim/density_matrix.hpp"
#include "sim/snapshot.hpp"
#include "sim/trajectory.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace charter::exec {

using backend::CompiledProgram;
using backend::EngineKind;

BatchRunner::BatchRunner(const backend::Backend& backend,
                         BatchOptions options)
    : backend_(backend), options_(options) {}

namespace {

/// Lazily constructed per-worker density-matrix scratch engines.  Workers
/// have stable indices, so each engine is touched by exactly one thread.
class WorkerEngines {
 public:
  explicit WorkerEngines(int num_workers)
      : engines_(static_cast<std::size_t>(num_workers)) {}

  sim::DensityMatrixEngine& get(int worker, int width) {
    auto& slot = engines_[static_cast<std::size_t>(worker)];
    if (!slot) slot = std::make_unique<sim::DensityMatrixEngine>(width);
    return *slot;
  }

 private:
  std::vector<std::unique_ptr<sim::DensityMatrixEngine>> engines_;
};

/// The trajectory tape-sharing key: sharers must agree on the optimization
/// level AND, for fused-wide tapes, on the resolved fusion width — a
/// width-2 and a width-3 run lower to different tapes, so letting them
/// share would splice suffixes into a tape fused at the wrong width.  Exact
/// runs ignore the width knob and must not fork on it.
std::pair<noise::OptLevel, int> tape_key(const backend::RunOptions& run) {
  return {run.opt, run.opt == noise::OptLevel::kFusedWide
                       ? backend::resolve_fusion_width(run)
                       : 0};
}

void count_strategy(BatchRunner::Stats::StrategyCount& counts,
                    StrategyKind kind, std::size_t n) {
  switch (kind) {
    case StrategyKind::kDmExact: counts.dm_exact += n; break;
    case StrategyKind::kTrajectory: counts.trajectory += n; break;
    case StrategyKind::kCheckpointSplice: counts.checkpoint_splice += n; break;
    case StrategyKind::kAuto: break;
  }
}

}  // namespace

std::vector<std::vector<double>> BatchRunner::run(
    const std::vector<AnalysisJob>& jobs,
    const CompiledProgram* base,
    const RunHooks* hooks) const {
  stats_ = Stats{};
  stats_.jobs = jobs.size();
  std::vector<std::vector<double>> results(jobs.size());
  std::vector<bool> done(jobs.size(), false);
  for (const AnalysisJob& job : jobs)
    require(job.program != nullptr, "analysis job without a program");

  const util::CancelFlag* cancel = hooks != nullptr ? hooks->cancel : nullptr;
  const auto cancelled = [&] { return cancel && cancel->requested(); };
  const auto notify_done = [&](std::size_t job_index) {
    if (hooks != nullptr && hooks->on_job_complete)
      hooks->on_job_complete(job_index);
  };

  // Serve repeated submissions from the process-wide cache.  The device
  // fingerprint sweeps the full calibration table, so compute it once for
  // the batch rather than once per job.  A backend with no cache identity
  // (custom Backend subclasses by default) skips the cache entirely.
  std::vector<Fingerprint> keys;
  const std::optional<Fingerprint> device =
      options_.caching ? fingerprint(backend_) : std::nullopt;
  const bool caching = device.has_value();
  if (caching) {
    keys.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      keys[i] = run_key(*jobs[i].program, *device, jobs[i].run);
      CacheTier served = CacheTier::kNone;
      if (auto hit = RunCache::global().lookup(keys[i], &served)) {
        results[i] = std::move(*hit);
        done[i] = true;
        ++stats_.cache_hits;
        ++(served == CacheTier::kDisk ? stats_.cache_disk_hits
                                      : stats_.cache_memory_hits);
        notify_done(i);
      }
    }
  }

  // Partition the remaining jobs into three routes.
  //
  //  - Density-matrix checkpoint sharers: deterministic given the model, so
  //    drift == 0 and a verified prefix suffice for exactness (the
  //    density-matrix path always runs the exact tape).
  //  - Trajectory checkpoint sharers: unravellings re-randomize per run
  //    seed, so sharing additionally requires every job to carry the *same*
  //    (seed, trajectory count) as the base sweep — then each trajectory's
  //    prefix consumes identical random draws and an engine clone (state +
  //    RNG stream) resumes it exactly.
  //  - Everything else (drifted models, mismatched footprints or seeds):
  //    independent full runs, still scheduled on the pool.
  std::vector<std::size_t> dm_idx;
  std::vector<std::size_t> traj_idx;
  std::vector<std::size_t> plain_idx;
  // Checkpoint sharing (and the lowered trajectory fan-out below) needs the
  // backend's lower/finalize decomposition; backends without it run every
  // job whole.
  const bool lowering = backend_.supports_lowering();
  const bool base_usable =
      options_.checkpointing && base != nullptr && lowering;
  std::vector<int> base_kept;
  if (base_usable) base_kept = backend::used_qubits(*base);
  const int base_width = static_cast<int>(base_kept.size());
  std::vector<std::size_t> traj_candidates;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (done[i]) continue;
    const AnalysisJob& job = jobs[i];
    const bool prefix_ok =
        base_usable && job.shared_prefix > 0 && job.run.drift == 0.0 &&
        job.program->physical.num_qubits() ==
            base->physical.num_qubits() &&
        (job.program == base || backend::used_qubits(*job.program) == base_kept);
    const EngineKind engine =
        prefix_ok ? backend::resolve_engine(job.run, base_width)
                  : EngineKind::kAuto;
    if (prefix_ok && engine == EngineKind::kDensityMatrix &&
        base_width <= sim::DensityMatrixEngine::kMaxQubits) {
      dm_idx.push_back(i);
    } else if (prefix_ok && engine == EngineKind::kTrajectory) {
      traj_candidates.push_back(i);
    } else {
      plain_idx.push_back(i);
    }
  }

  // Trajectory sharing only pays when at least two candidates agree on
  // (seed, trajectory count, tape key) — the base sweep costs a full run's
  // worth of simulation, so a lone job is cheaper cold, and mixing exact
  // with fused-wide sharers (or fused-wide sharers at different resolved
  // widths) would hand part of the group a tape lowered the wrong way.
  // Pick the plurality config; candidates outside it run plain.
  bool have_traj_group = false;
  std::uint64_t group_seed = 0;
  int group_trajectories = 0;
  std::pair<noise::OptLevel, int> group_tape{noise::OptLevel::kExact, 0};
  if (traj_candidates.size() >= 2) {
    std::size_t best_count = 0;
    for (const std::size_t i : traj_candidates) {
      std::size_t count = 0;
      for (const std::size_t j : traj_candidates)
        count += (jobs[j].run.seed == jobs[i].run.seed &&
                  jobs[j].run.trajectories == jobs[i].run.trajectories &&
                  tape_key(jobs[j].run) == tape_key(jobs[i].run));
      if (count > best_count) {
        best_count = count;
        group_seed = jobs[i].run.seed;
        group_trajectories = jobs[i].run.trajectories;
        group_tape = tape_key(jobs[i].run);
      }
    }
    have_traj_group = best_count >= 2;
  }
  for (const std::size_t i : traj_candidates) {
    const bool in_group = have_traj_group &&
                          jobs[i].run.seed == group_seed &&
                          jobs[i].run.trajectories == group_trajectories &&
                          tape_key(jobs[i].run) == group_tape;
    (in_group ? traj_idx : plain_idx).push_back(i);
  }

  // The pool spawns lazily: a fully cache-served batch (the warm re-analysis
  // path) never pays worker creation.  A caller-provided pool (charterd's
  // shared one) is used as-is.
  std::optional<util::ThreadPool> pool_storage;
  const auto pool = [&]() -> util::ThreadPool& {
    if (options_.pool != nullptr) return *options_.pool;
    if (!pool_storage)
      pool_storage.emplace(util::resolve_threads(options_.threads));
    return *pool_storage;
  };

  // Multi-process mode (options_.workers > 0): worker children spawn
  // lazily, once, and are shared by every route in this run().  A worker
  // that dies in one route stays dead for the next — degraded, never
  // wrong, since every failed unit is retried in-process.
  std::optional<WorkerSet> worker_storage;
  const auto worker_set = [&]() -> WorkerSet& {
    if (!worker_storage)
      worker_storage.emplace(options_.workers, options_.worker_exe);
    return *worker_storage;
  };
  std::atomic<std::size_t> mp_units{0};     // units served by workers
  std::atomic<std::size_t> mp_failures{0};  // worker deaths detected
  std::atomic<std::size_t> mp_retried{0};   // units retried in-process

  // Runs body(u, w, wp) for every unit u in [0, num_units).  In-process,
  // units are pool tasks (w = pool worker, wp = nullptr).  In
  // multi-process mode there is one driver thread per worker child,
  // claiming unit indices from a shared counter (w = child index, wp =
  // that child).  A non-empty caller runs on this thread beside the units
  // (ThreadPool::run's caller task).  Every thread involved runs kernels
  // serially; the first exception wins and is rethrown after the join.
  // Results land by submission index either way, so claim order never
  // reaches the numbers.
  const auto run_units =
      [&](std::size_t num_units,
          const std::function<void(std::size_t, int, WorkerProcess*)>& body,
          const std::function<void()>& caller = {}) {
        if (options_.workers == 0) {
          pool().run(static_cast<std::int64_t>(num_units),
                     [&](std::int64_t u, int worker) {
                       body(static_cast<std::size_t>(u), worker, nullptr);
                     },
                     cancel, caller);
          return;
        }
        WorkerSet& ws = worker_set();
        std::atomic<std::size_t> next{0};
        std::mutex err_mu;
        std::exception_ptr first_error;
        const auto capture = [&] {
          const std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        };
        std::vector<std::thread> drivers;
        drivers.reserve(ws.size());
        for (int w = 0; w < static_cast<int>(ws.size()); ++w) {
          drivers.emplace_back([&, w] {
            const util::SerialKernels serial;
            try {
              WorkerProcess& wp = ws.worker(static_cast<std::size_t>(w));
              for (;;) {
                if (cancelled()) return;
                const std::size_t u =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (u >= num_units) return;
                body(u, w, &wp);
              }
            } catch (...) {
              capture();
            }
          });
        }
        if (caller) {
          const util::SerialKernels serial;
          try {
            caller();
          } catch (...) {
            capture();
          }
        }
        for (std::thread& t : drivers) t.join();
        if (first_error) std::rethrow_exception(first_error);
      };

  // One unit on a worker child: nullopt — the caller redoes the unit
  // in-process — when there is no live child or the attempt failed (a
  // flipped alive() additionally means the child died).
  const auto offload = [&](WorkerProcess* wp, const auto& send)
      -> std::optional<std::vector<double>> {
    if (wp == nullptr || !wp->alive()) return std::nullopt;
    std::optional<std::vector<double>> r = send(*wp);
    if (r) {
      mp_units.fetch_add(1, std::memory_order_relaxed);
    } else {
      mp_retried.fetch_add(1, std::memory_order_relaxed);
      if (!wp->alive()) mp_failures.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
  };

  // Cancellation policy: workers stop claiming tasks once the flag is set
  // (threaded into every pool().run below); between phases the coordinator
  // re-checks and abandons the batch.  Partial results never reach the
  // caller or the cache — the only exit on a requested flag is the throw.
  const auto throw_if_cancelled = [&] {
    if (cancelled())
      throw Cancelled("batch execution cancelled (" +
                      std::to_string(jobs.size()) + "-job batch on '" +
                      backend_.name() + "')");
  };
  throw_if_cancelled();

  // Route timing for Stats::actual_ns: coordinator-side steady_clock spans
  // around each route.  Never touches the numerics.
  const auto route_ns = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  if (!dm_idx.empty()) {
    const auto dm_t0 = std::chrono::steady_clock::now();
    // Lower the base once; every sharer reuses the compaction, restricted
    // model, and exact executor.  drift == 0 for all sharers, so the lowered
    // model is seed-independent and shared safely.
    backend::RunOptions lower_options;
    lower_options.drift = 0.0;
    const backend::LoweredRun lowered = backend_.lower(*base, lower_options);
    const noise::NoisyExecutor executor(lowered.model);

    // Jobs whose program *is* the base are served by the sweep itself; every
    // other job resumes from a snapshot and declares one claim on it.
    std::vector<std::size_t> base_jobs;
    std::vector<std::size_t> resumers;
    std::vector<std::size_t> prefix_lens;
    for (const std::size_t i : dm_idx) {
      if (jobs[i].program == base) {
        base_jobs.push_back(i);
      } else {
        resumers.push_back(i);
        prefix_lens.push_back(jobs[i].shared_prefix);
      }
    }
    // In multi-process mode the shard fan-out keys off the worker-process
    // count (the pool is not used on this route at all).
    const int fanout =
        options_.workers > 0 ? options_.workers : pool().num_workers();
    // The sweep may run ahead of the consumers by one snapshot per worker.
    // A nested (inline) pool runs the sweep before any shard, so there it
    // must never wait for a claim.
    const bool inline_pool = options_.workers == 0 && util::serial_kernels();
    CheckpointPlan plan(executor, lowered.local, std::move(prefix_lens),
                        options_.checkpoint_memory_bytes,
                        inline_pool ? std::numeric_limits<std::size_t>::max()
                                    : static_cast<std::size_t>(fanout));

    // Shard by checkpoint segment: jobs resuming from the same snapshot run
    // on the same worker and reload a cache-warm rho.  Shards come out in
    // ascending segment order, so the longest replays start first and each
    // waits only for its own snapshot.  Results land by submission index,
    // so shard shapes never reach the numbers.
    std::vector<std::size_t> segments(resumers.size());
    for (std::size_t k = 0; k < resumers.size(); ++k)
      segments[k] = plan.segment_of(jobs[resumers[k]].shared_prefix);
    const std::vector<Shard> shards = make_shards(
        resumers, segments, default_max_shard_jobs(resumers.size(), fanout));

    // The producer: the coordinator sweeps the base with serial kernels,
    // beside the shards, publishing each snapshot as it is taken, then
    // serves the base jobs from the finished sweep.
    const auto sweep = [&] {
      if (!plan.sweep(cancel)) return;
      for (const std::size_t i : base_jobs) {
        results[i] = backend_.finalize(plan.base_probabilities(), lowered,
                                       *jobs[i].program, jobs[i].run);
        notify_done(i);
      }
    };

    // The consumers: one shard loop for both modes.  Every job goes through
    // prepare_shared, and the prepared (spliced) tape then runs on the
    // shard's worker child when one is alive — shipped with its snapshot as
    // serialized blobs, read back as raw probability doubles — and locally
    // otherwise.  The child interprets exactly the bytes a local run
    // interprets, so the results are bit-identical at any worker count.  A
    // dead worker's unit is redone here from the same PreparedResume, never
    // by preparing again, which would double-count the plan's
    // resumed/replayed stats and claim its snapshot twice.
    WorkerEngines engines(fanout);
    // Consecutive jobs in a shard resume from the same snapshot; cache its
    // serialization per driver, keyed by checkpoint index (a freed
    // snapshot's address can come back for a later one).
    struct SnapCache {
      std::optional<std::size_t> checkpoint;
      std::vector<std::uint8_t> bytes;
    };
    std::vector<SnapCache> snap_cache(static_cast<std::size_t>(fanout));

    const auto run_shard = [&](std::size_t s, int w, WorkerProcess* wp) {
      try {
        if (!plan.wait_for_segment(shards[s].segment)) return;
        for (const std::size_t i : shards[s].jobs) {
          // One shard holds many jobs; honor cancellation between them.
          if (cancelled()) return;
          const AnalysisJob& job = jobs[i];
          const circ::Circuit derived =
              backend::compact_to(job.program->physical, lowered.kept);
          std::optional<CheckpointPlan::PreparedResume> prep =
              plan.prepare_shared(derived, job.shared_prefix);
          std::optional<std::vector<double>> r;
          if (prep) {
            r = offload(wp, [&](WorkerProcess& p) {
              SnapCache& sc = snap_cache[static_cast<std::size_t>(w)];
              if (sc.checkpoint != prep->checkpoint) {
                sc.bytes = sim::serialize_snapshot(lowered.local.num_qubits(),
                                                   *prep->snapshot);
                sc.checkpoint = prep->checkpoint;
              }
              return p.run_tape(noise::serialize_tape(prep->tape),
                                prep->resume_pos, sc.bytes);
            });
          }
          std::vector<double> probs;
          if (r) {
            probs = std::move(*r);
          } else {
            sim::DensityMatrixEngine& engine =
                engines.get(w, lowered.local.num_qubits());
            if (prep) {
              engine.load_state(*prep->snapshot);
              prep->snapshot.reset();  // a released snapshot is freed here
              prep->tape.run(engine, prep->resume_pos, prep->tape.size());
            } else {
              // Unprovable prefix: cold run (prepare_shared bumped the
              // fallback stat).
              executor.run(derived, engine);
            }
            probs = engine.probabilities();
          }
          results[i] = backend_.finalize(std::move(probs), lowered,
                                         *job.program, job.run);
          notify_done(i);
        }
      } catch (...) {
        // This shard's remaining claims will never come: release the sweep.
        plan.abort();
        throw;
      }
    };
    run_units(shards.size(), run_shard, sweep);
    throw_if_cancelled();
    stats_.checkpoint_fallbacks += plan.stats().fallbacks;
    stats_.checkpointed = dm_idx.size() - plan.stats().fallbacks;

    stats_.actual_ns += route_ns(dm_t0);
    // Non-base jobs resume from shared prefix snapshots (splice); base jobs
    // are full exact DM walks.
    for (const std::size_t i : dm_idx)
      count_strategy(stats_.strategy_jobs,
                     jobs[i].program != base ? StrategyKind::kCheckpointSplice
                                             : StrategyKind::kDmExact,
                     1);
  }

  if (!traj_idx.empty()) {
    const auto traj_t0 = std::chrono::steady_clock::now();
    backend::RunOptions lower_options;
    lower_options.drift = 0.0;
    const backend::LoweredRun lowered = backend_.lower(*base, lower_options);
    // kFusedWide keeps channels as in-order barriers, so the group may
    // share a fused-wide lowering — at the group's agreed fusion width.
    const noise::NoisyExecutor executor(lowered.model, group_tape.first,
                                        group_tape.second);
    std::vector<std::size_t> prefix_lens;
    for (const std::size_t i : traj_idx)
      if (jobs[i].program != base) prefix_lens.push_back(jobs[i].shared_prefix);
    const TrajectoryCheckpointPlan plan(
        executor, lowered.local, std::move(prefix_lens), group_trajectories,
        group_seed, options_.checkpoint_memory_bytes, pool());

    pool().run(static_cast<std::int64_t>(traj_idx.size()),
             [&](std::int64_t k, int /*worker*/) {
               const std::size_t i = traj_idx[static_cast<std::size_t>(k)];
               const AnalysisJob& job = jobs[i];
               std::vector<double> probs =
                   job.program == base
                       ? plan.base_probabilities()
                       : plan.run_shared(
                             backend::compact_to(job.program->physical,
                                                 lowered.kept),
                             job.shared_prefix);
               results[i] = backend_.finalize(std::move(probs), lowered,
                                              *job.program, job.run);
               notify_done(i);
             }, cancel);
    throw_if_cancelled();
    stats_.checkpoint_fallbacks += plan.stats().fallbacks;
    stats_.trajectory_checkpointed = traj_idx.size() - plan.stats().fallbacks;

    stats_.actual_ns += route_ns(traj_t0);
    count_strategy(stats_.strategy_jobs, StrategyKind::kTrajectory,
                   traj_idx.size());
  }

  if (!plain_idx.empty()) {
    const auto plain_t0 = std::chrono::steady_clock::now();
    // Independent full runs.  Trajectory jobs fan their unravelling groups
    // out as individual pool tasks — a two-job batch with 48 trajectories
    // each still saturates the pool — and fold in group order, which is the
    // exact reduction run_trajectories performs; everything else runs one
    // job per task.
    std::vector<std::size_t> traj_plain;
    std::vector<std::size_t> other_plain;
    for (const std::size_t i : plain_idx) {
      // Classify on the *job's own* compacted width (plain jobs may differ
      // from the base footprint).  The lowered trajectory fan-out needs the
      // backend's lower/finalize split; without it every job runs whole.
      const int width = static_cast<int>(
          backend::used_qubits(*jobs[i].program).size());
      (lowering && backend::resolve_engine(jobs[i].run, width) ==
                       EngineKind::kTrajectory
           ? traj_plain
           : other_plain)
          .push_back(i);
    }

    pool().run(static_cast<std::int64_t>(other_plain.size()),
             [&](std::int64_t k, int /*worker*/) {
               const std::size_t i =
                   other_plain[static_cast<std::size_t>(k)];
               results[i] = backend_.run(*jobs[i].program, jobs[i].run);
               notify_done(i);
             }, cancel);
    throw_if_cancelled();

    if (!traj_plain.empty()) {
      struct TrajRun {
        std::optional<backend::LoweredRun> lowered;
        noise::NoiseProgram tape{0};
        int groups = 0;
        /// Folds the group partials in group order as they complete.
        std::optional<sim::TrajectoryFold> fold;
      };
      std::vector<TrajRun> runs(traj_plain.size());
      // Phase 1: lower every job's tape (one task per job).
      pool().run(static_cast<std::int64_t>(traj_plain.size()),
               [&](std::int64_t k, int /*worker*/) {
                 const std::size_t i =
                     traj_plain[static_cast<std::size_t>(k)];
                 TrajRun& r = runs[static_cast<std::size_t>(k)];
                 r.lowered = backend_.lower(*jobs[i].program, jobs[i].run);
                 // Mirror FakeBackend::run: trajectories honor run.opt.
                 const noise::NoisyExecutor executor(
                     r.lowered->model, jobs[i].run.opt,
                     backend::resolve_fusion_width(jobs[i].run));
                 r.tape = executor.lower(r.lowered->local);
                 r.groups =
                     sim::num_trajectory_groups(jobs[i].run.trajectories);
                 r.fold.emplace(std::uint64_t{1}
                                    << r.lowered->local.num_qubits(),
                                jobs[i].run.trajectories);
               }, cancel);
      throw_if_cancelled();
      // Phase 2: every (job, trajectory-group) pair is one task.  Each
      // job's fold merges partials in group index order as they complete
      // (freeing each once folded), so it cannot tell which process
      // produced which group.
      std::vector<std::pair<std::size_t, int>> units;
      for (std::size_t k = 0; k < traj_plain.size(); ++k)
        for (int g = 0; g < runs[k].groups; ++g) units.emplace_back(k, g);
      // Multi-process mode ships each job's lowered tape (serialized once)
      // with a (begin, end, seed) assignment; the child re-runs
      // run_trajectory_group with an identically seeded Rng, so the partial
      // sums carry the exact bits an in-process group produces.
      std::vector<std::vector<std::uint8_t>> tapes(traj_plain.size());
      if (options_.workers > 0)
        for (std::size_t k = 0; k < traj_plain.size(); ++k)
          tapes[k] = noise::serialize_tape(runs[k].tape);
      run_units(units.size(), [&](std::size_t u, int /*w*/,
                                  WorkerProcess* wp) {
        const auto [k, g] = units[u];
        const std::size_t i = traj_plain[k];
        TrajRun& r = runs[k];
        const int begin = g * sim::kTrajectoryGroupSize;
        const int end = std::min(begin + sim::kTrajectoryGroupSize,
                                 jobs[i].run.trajectories);
        const std::uint64_t seed =
            jobs[i].run.seed ^ backend::kTrajectorySeedSalt;
        std::optional<std::vector<double>> res =
            offload(wp, [&](WorkerProcess& p) {
              return p.run_trajectory_group(tapes[k], begin, end, seed);
            });
        r.fold->add(g, res ? std::move(*res)
                           : sim::run_trajectory_group(
                                 r.lowered->local.num_qubits(), begin, end,
                                 util::Rng(seed),
                                 [&](sim::NoisyEngine& engine) {
                                   r.tape.execute(engine);
                                 }));
      });
      throw_if_cancelled();
      // Phase 3: finalize the folded averages (one task per job).
      pool().run(static_cast<std::int64_t>(traj_plain.size()),
               [&](std::int64_t k, int /*worker*/) {
                 const std::size_t i =
                     traj_plain[static_cast<std::size_t>(k)];
                 TrajRun& r = runs[static_cast<std::size_t>(k)];
                 results[i] = backend_.finalize(r.fold->take(), *r.lowered,
                                                *jobs[i].program, jobs[i].run);
                 notify_done(i);
               }, cancel);
      throw_if_cancelled();
    }
    stats_.full_runs = plain_idx.size();

    stats_.actual_ns += route_ns(plain_t0);
    // Plain jobs are heterogeneous (that is why they are plain), so each is
    // classified on its own width.
    for (const std::size_t i : plain_idx)
      count_strategy(
          stats_.strategy_jobs,
          classify_run(jobs[i].run, static_cast<int>(backend::used_qubits(
                                        *jobs[i].program).size())),
          1);
  }
  throw_if_cancelled();
  stats_.worker_jobs = mp_units.load();
  stats_.worker_failures = mp_failures.load();
  stats_.worker_retried_jobs = mp_retried.load();

  if (caching) {
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (!done[i]) RunCache::global().store(keys[i], results[i]);
  }
  return results;
}

}  // namespace charter::exec
