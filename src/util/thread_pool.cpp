#include "util/thread_pool.hpp"

#include "util/parallel.hpp"

#include <vector>

namespace charter::util {

namespace {

/// Spins until ready() holds or \p window has passed, and returns ready().
template <typename Ready>
bool spin_until(std::chrono::microseconds window, Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + window;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
  return ready();
}

}  // namespace

int resolve_threads(int threads) {
  if (threads >= 1) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int kernel_pool_width() {
  static const int width = resolve_threads(0);
  return width;
}

bool run_on_kernel_pool(std::int64_t tasks,
                        const std::function<void(std::int64_t)>& task) {
  static std::atomic<bool> busy{false};
  if (serial_kernels() || kernel_pool_width() < 2 ||
      busy.exchange(true, std::memory_order_acquire))
    return false;
  struct Release {
    ~Release() { busy.store(false, std::memory_order_release); }
  } release;
  // Never destroyed, so no exit-time destructor joins workers that another
  // thread may still be using.  The caller takes tasks too.
  const int width = kernel_pool_width();
  static ThreadPool* const pool =
      new ThreadPool(width - 1, std::chrono::milliseconds(2));
  // Thread p is the caller for p = 0 and worker p - 1 otherwise.
  static std::vector<std::atomic<std::int64_t>> claimed(
      static_cast<std::size_t>(width));
  for (auto& c : claimed) c.store(0, std::memory_order_relaxed);
  const auto drain = [&](int p) {
    for (int k = 0; k < width; ++k) {
      const int q = (p + k) % width;
      std::atomic<std::int64_t>& next = claimed[static_cast<std::size_t>(q)];
      for (std::int64_t t;
           (t = q + width * next.fetch_add(1, std::memory_order_relaxed)) <
           tasks;)
        task(t);
    }
  };
  pool->run(
      pool->num_workers(), [&](std::int64_t, int w) { drain(w + 1); },
      nullptr, [&] { drain(0); });
  return true;
}

ThreadPool::ThreadPool(int num_workers, std::chrono::microseconds spin)
    : spin_(spin) {
  if (num_workers < 1) num_workers = 1;
  threads_.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_main(int worker) {
  const SerialKernels serial;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    lock.unlock();
    spin_until(spin_, [&] {
      return generation_.load(std::memory_order_relaxed) != seen;
    });
    lock.lock();
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const auto* fn = fn_;
    const CancelFlag* cancel = cancel_;
    const std::int64_t total = total_;
    while (next_ < total && !(cancel && cancel->requested())) {
      const std::int64_t task = next_++;
      lock.unlock();
      std::exception_ptr err;
      try {
        (*fn)(task, worker);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err && !first_error_) first_error_ = err;
    }
    if (--active_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run(std::int64_t n,
                     const std::function<void(std::int64_t, int)>& fn,
                     const CancelFlag* cancel,
                     const std::function<void()>& caller) {
  if (serial_kernels()) {
    // Nested use from a task body (or a caller task): the pool is busy
    // running *this* batch, so parking on done_cv_ would deadlock.  Degrade
    // to an inline serial walk, caller task first.
    if (caller) caller();
    for (std::int64_t i = 0; i < n; ++i) {
      if (cancel && cancel->requested()) return;
      fn(i, 0);
    }
    return;
  }
  if (n <= 0 && !caller) return;
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  cancel_ = cancel;
  total_ = n;
  next_ = 0;
  first_error_ = nullptr;
  active_ = num_workers();
  ++generation_;
  work_cv_.notify_all();
  lock.unlock();
  std::exception_ptr caller_error;
  if (caller) {
    const SerialKernels serial;
    try {
      caller();
    } catch (...) {
      caller_error = std::current_exception();
    }
  }
  spin_until(spin_,
             [&] { return active_.load(std::memory_order_relaxed) == 0; });
  lock.lock();
  if (caller_error && !first_error_) first_error_ = caller_error;
  done_cv_.wait(lock, [&] { return active_ == 0; });
  fn_ = nullptr;
  cancel_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace charter::util
