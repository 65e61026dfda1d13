#pragma once

/// \file parallel.hpp
/// Shared-memory parallel loop helpers for the simulation kernels.
///
/// Kernels stay oblivious to threads: parallel_for fans a loop over a
/// large enough state out on the kernel pool, one process-wide
/// util::ThreadPool created on first use at the hardware width, and
/// otherwise runs it inline in index order.  The kernel pool runs one loop
/// at a time (a caller that finds it busy runs its loop inline) and is
/// never used from a thread holding a SerialKernels mark.  The exec
/// layer's threads hold one (pool workers, the caller task, the worker
/// driver threads, the `charter worker` serve loop), and so do the kernel
/// pool's own workers: the two kinds of parallelism never stack, and a
/// forked worker child never touches the kernel pool.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace charter::util {

namespace detail {
/// Depth of live SerialKernels guards on this thread.
inline thread_local int t_serial_kernels = 0;
}  // namespace detail

/// True while a SerialKernels guard is alive on this thread.
inline bool serial_kernels() { return detail::t_serial_kernels > 0; }

/// Scoped exec mark: while one is alive, the helpers below and
/// util::ThreadPool::run run inline on this thread, one core's worth of
/// work beside other marked threads.  Guards nest.
class SerialKernels {
 public:
  SerialKernels() { ++detail::t_serial_kernels; }
  ~SerialKernels() { --detail::t_serial_kernels; }
  SerialKernels(const SerialKernels&) = delete;
  SerialKernels& operator=(const SerialKernels&) = delete;
};

/// Threads a kernel-pool loop runs on: the hardware thread count.
int kernel_pool_width();

/// Runs task(t) for every t in [0, tasks) on the kernel pool and the
/// calling thread; thread p first runs tasks p, p + width, ..., then takes
/// over unclaimed ones.  Returns false, having run nothing, on a marked
/// thread, while the pool runs another caller's loop, or on a host with a
/// single hardware thread.
bool run_on_kernel_pool(std::int64_t tasks,
                        const std::function<void(std::int64_t)>& task);

/// A loop of at least this many grains fans out.  A kernel's grain makes
/// 2 * grain iterations the same state size on every SIMD path, so the cut
/// is four times that size: every density-matrix kernel fans out by
/// vec(rho) at n = 9 (4 MiB), the statevector kernels from 2^13-2^16
/// amplitudes, and a small state never pays a pool wake per tape op.
inline constexpr std::int64_t kKernelPoolMinGrains = 8;

/// Runs fn(i) for i in [0, n); fn must be safe to invoke concurrently for
/// distinct i.  A loop of at least kKernelPoolMinGrains grains runs on the
/// kernel pool, one contiguous slice per thread, so each thread finds the
/// slice it swept at the previous call in its cache (a 4 MiB vec(rho) fits
/// four 2 MiB L2 caches).
template <typename Fn>
void parallel_for(std::int64_t n, Fn&& fn, std::int64_t grain = 1024) {
  if (n >= kKernelPoolMinGrains * grain && !serial_kernels()) {
    const std::int64_t slices = kernel_pool_width();
    if (run_on_kernel_pool(slices, [&](std::int64_t s) {
          const std::int64_t end = (s + 1) * n / slices;
          for (std::int64_t i = s * n / slices; i < end; ++i) fn(i);
        }))
      return;
  }
  for (std::int64_t i = 0; i < n; ++i) fn(i);
}

/// Fixed chunk length of parallel_sum_chunked's association tree (a power
/// of two, so amplitude sums over <= 2^13 entries degenerate to one chunk —
/// the plain serial accumulation).
inline constexpr std::int64_t kChunkedSumLen = 8192;

/// Thread-count-*invariant* sum-reduction: fn(i) is accumulated serially
/// within fixed-length chunks and the per-chunk partials are folded serially
/// in chunk-index order.  The association is a function of n alone, so the
/// result is bit-identical whether the chunks run on the kernel pool or
/// inline on a marked thread.  Used by the amplitude-parallel large-n
/// statevector path, whose reductions would otherwise break the
/// bit-determinism contract the trajectory fold relies on.
template <typename Fn>
double parallel_sum_chunked(std::int64_t n, Fn&& fn) {
  if (n <= kChunkedSumLen) {
    double total = 0.0;
    for (std::int64_t i = 0; i < n; ++i) total += fn(i);
    return total;
  }
  const std::int64_t num_chunks = (n + kChunkedSumLen - 1) / kChunkedSumLen;
  std::vector<double> partial(static_cast<std::size_t>(num_chunks), 0.0);
  parallel_for(
      num_chunks,
      [&](std::int64_t c) {
        const std::int64_t begin = c * kChunkedSumLen;
        const std::int64_t end =
            begin + kChunkedSumLen < n ? begin + kChunkedSumLen : n;
        double s = 0.0;
        for (std::int64_t i = begin; i < end; ++i) s += fn(i);
        partial[static_cast<std::size_t>(c)] = s;
      },
      /*grain=*/1);
  double total = 0.0;
  for (const double s : partial) total += s;
  return total;
}

}  // namespace charter::util
