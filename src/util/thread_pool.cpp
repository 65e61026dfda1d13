#include "util/thread_pool.hpp"

#include "util/parallel.hpp"

namespace charter::util {

int resolve_threads(int threads) {
  if (threads >= 1) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_workers) {
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
  if (caller) {
    lock.unlock();
    std::exception_ptr err;
    {
      const SerialKernels serial;
      try {
        caller();
      } catch (...) {
        err = std::current_exception();
      }
    }
    lock.lock();
    if (err && !first_error_) first_error_ = err;
  }
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
