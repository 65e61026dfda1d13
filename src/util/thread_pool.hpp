#pragma once

/// \file thread_pool.hpp
/// The exec layer's worker pool.
///
/// util::parallel_for and friends lean on OpenMP and are the right tool for
/// data-parallel kernels *inside* one simulation.  The sharded analysis
/// driver (exec/sharding.hpp) needs something those helpers cannot give:
///
///  - an explicit, per-batch thread count (the `threads` knob that flows
///    from CharterOptions down to the CLI and benches), independent of
///    OMP_NUM_THREADS;
///  - stable worker identities, so each worker can own long-lived scratch
///    (a cloned simulation engine) across many tasks;
///  - a guarantee that *nothing numeric* changes with the worker count:
///    every task body runs under a util::SerialKernels guard, so the nested
///    util::parallel_* helpers stay serial and order-dependent reductions
///    (parallel_sum feeding trajectory renormalization) cannot reassociate
///    differently at different widths;
///  - a caller task: run() can execute one more function on the calling
///    thread while the workers claim tasks, which is how the checkpointed
///    sweep overlaps its base sweep (the producer) with the shard replays
///    (the consumers) without spawning a thread per batch.
///
/// The pool spawns its workers up front and keeps them parked on a condition
/// variable between run() calls.  run() is a dynamic self-scheduling loop:
/// workers claim task indices from a shared atomic counter, so irregular
/// task costs (deep vs. shallow resumed suffixes) balance automatically.
/// Determinism is the caller's contract: tasks write results keyed by task
/// index and never reduce across tasks inside the pool — the coordinating
/// thread folds in index order afterwards.
///
/// Serial-kernel threads: workers hold a SerialKernels guard for their whole
/// life, and the caller task runs under one too, so parallel_for /
/// parallel_for_dynamic / parallel_sum stay serial there at *every* pool
/// width, including 1 — the pool's threads plus the caller are the whole
/// parallelism.  A run() issued from a serial-kernel thread (accidental
/// nesting from a task body) executes inline on that thread.

#include <atomic>
#include <cstdint>
#include <functional>

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace charter::util {

/// Resolves a thread-count knob: values >= 1 are taken literally; 0 (the
/// "auto" convention used by exec::BatchOptions::threads) means one worker
/// per hardware thread.
int resolve_threads(int threads);

/// Cooperative cancellation flag shared between a controller (a Session job
/// handle, a CLI signal handler) and the workers executing on its behalf.
/// request() is sticky: once set, every observer sees it until the flag
/// object is destroyed.  Safe to request from any thread, including from
/// inside a progress callback running on a pool worker.
class CancelFlag {
 public:
  void request() { requested_.store(true, std::memory_order_relaxed); }
  bool requested() const {
    return requested_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> requested_{false};
};

/// Fixed-width pool of parked worker threads with dynamic task claiming.
class ThreadPool {
 public:
  /// Spawns \p num_workers threads (clamped to >= 1).  Workers idle on a
  /// condition variable until run() publishes work.
  explicit ThreadPool(int num_workers);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  int num_workers() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(task, worker) for every task in [0, n), dynamically scheduled
  /// across the workers, and blocks until all complete.  \p worker is the
  /// executing worker's stable index in [0, num_workers()) — the handle for
  /// per-worker scratch.  fn must be safe to invoke concurrently for
  /// distinct tasks.  Exceptions thrown by fn are captured; the first one
  /// (in completion order) is rethrown here after the loop drains.  Called
  /// from a serial-kernel thread (inside a pool worker or a caller task),
  /// the loop degrades to an inline serial walk (worker index 0) rather than
  /// deadlocking on the parked pool.
  ///
  /// When \p cancel is non-null, workers stop *claiming* tasks as soon as
  /// the flag is requested (tasks already executing finish normally) and
  /// run() returns after the drain without visiting the remaining indices.
  /// The caller decides what a partial walk means — exec::BatchRunner
  /// discards its partial results and throws charter::Cancelled.
  ///
  /// A non-empty \p caller runs once on the calling thread, under a
  /// util::SerialKernels guard, concurrently with the tasks (cancellation
  /// is the caller task's own business).  run() returns when both it and
  /// the tasks are done; an exception from it is captured like a task's.
  /// It runs even when n <= 0.  On the nested inline path it runs first,
  /// before the tasks, so it must never wait for a task.
  void run(std::int64_t n, const std::function<void(std::int64_t, int)>& fn,
           const CancelFlag* cancel = nullptr,
           const std::function<void()>& caller = {});

 private:
  void worker_main(int worker);

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait here between runs
  std::condition_variable done_cv_;   ///< run() waits here for the drain
  const std::function<void(std::int64_t, int)>* fn_ = nullptr;
  const CancelFlag* cancel_ = nullptr;
  std::int64_t total_ = 0;
  std::int64_t next_ = 0;             ///< next unclaimed task (under mu_)
  std::uint64_t generation_ = 0;      ///< bumped per run(); wakes workers
  int active_ = 0;                    ///< workers still draining this run
  std::exception_ptr first_error_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace charter::util
