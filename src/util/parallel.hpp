#pragma once

/// \file parallel.hpp
/// Shared-memory parallel loop helpers.
///
/// Following the HPC guides, all parallelism in charter goes through these
/// high-level abstractions rather than ad-hoc thread management: OpenMP when
/// available, serial fallback otherwise.  Kernels stay oblivious to the
/// threading backend.  A thread holding a SerialKernels guard runs every
/// helper serially, so the exec layer's threads (pool workers, the sweep
/// coordinator, worker drivers and children) never stack OpenMP teams on
/// the cores they already occupy.

#include <cstddef>
#include <cstdint>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace charter::util {

namespace detail {
/// Depth of live SerialKernels guards on this thread.
inline thread_local int t_serial_kernels = 0;
}  // namespace detail

/// True while a SerialKernels guard is alive on this thread.
inline bool serial_kernels() { return detail::t_serial_kernels > 0; }

/// Scoped "serial kernels on this thread" guard.  While one is alive, the
/// helpers below treat the thread exactly like a nested OpenMP region and
/// stay serial.  Every thread that runs simulation work beside other such
/// threads holds one: util::ThreadPool workers (for their lifetime), the
/// coordinator while it runs a ThreadPool::run caller task, the
/// multi-process driver threads and the `charter worker` serve loop.  Each
/// of them is one core's worth of work, so an OpenMP team on top would only
/// oversubscribe the cores; and order-dependent reductions (parallel_sum)
/// can never reassociate differently when the exec layer's `threads` or
/// `workers` knob changes.  Guards nest.
class SerialKernels {
 public:
  SerialKernels() { ++detail::t_serial_kernels; }
  ~SerialKernels() { --detail::t_serial_kernels; }
  SerialKernels(const SerialKernels&) = delete;
  SerialKernels& operator=(const SerialKernels&) = delete;
};

/// Number of hardware threads the parallel helpers will use.
inline int num_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Runs fn(i) for i in [0, n); parallel when n is large enough to amortize
/// scheduling overhead.  fn must be safe to invoke concurrently for distinct i.
template <typename Fn>
void parallel_for(std::int64_t n, Fn&& fn, std::int64_t grain = 1024) {
#ifdef _OPENMP
  if (n >= 2 * grain && omp_get_max_threads() > 1 && !omp_in_parallel() &&
      !serial_kernels()) {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = 0; i < n; ++i) fn(i);
}

/// Dynamic-schedule variant of parallel_for for loops whose iterations have
/// irregular cost (whole-circuit simulation jobs, per-gate analysis runs).
/// Same policy guards as parallel_for: serial when OpenMP is absent, when the
/// loop is too small to amortize scheduling (< \p min_parallel iterations),
/// or when already inside a parallel region (inner kernels detect nesting and
/// stay serial).  fn must be safe to invoke concurrently for distinct i.
template <typename Fn>
void parallel_for_dynamic(std::int64_t n, Fn&& fn,
                          std::int64_t min_parallel = 2) {
#ifdef _OPENMP
  if (n >= min_parallel && omp_get_max_threads() > 1 && !omp_in_parallel() &&
      !serial_kernels()) {
#pragma omp parallel for schedule(dynamic)
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
#else
  (void)min_parallel;
#endif
  for (std::int64_t i = 0; i < n; ++i) fn(i);
}

/// Parallel sum-reduction of fn(i) over i in [0, n).
template <typename Fn>
double parallel_sum(std::int64_t n, Fn&& fn, std::int64_t grain = 1024) {
  double total = 0.0;
#ifdef _OPENMP
  if (n >= 2 * grain && omp_get_max_threads() > 1 && !omp_in_parallel() &&
      !serial_kernels()) {
#pragma omp parallel for schedule(static) reduction(+ : total)
    for (std::int64_t i = 0; i < n; ++i) total += fn(i);
    return total;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = 0; i < n; ++i) total += fn(i);
  return total;
}

/// Fixed chunk length of parallel_sum_chunked's association tree (a power
/// of two, so amplitude sums over <= 2^13 entries degenerate to one chunk —
/// the plain serial accumulation).
inline constexpr std::int64_t kChunkedSumLen = 8192;

/// Thread-count-*invariant* sum-reduction: fn(i) is accumulated serially
/// within fixed-length chunks and the per-chunk partials are folded serially
/// in chunk-index order.  Unlike parallel_sum — whose OpenMP reduction tree
/// reassociates with the worker count — the association here is a function
/// of n alone, so the result is bit-identical at every thread count, inside
/// nested regions and under SerialKernels (where the chunk loop runs
/// serially), and on a machine with no OpenMP at all.  Used by the
/// amplitude-parallel large-n statevector path, whose reductions would
/// otherwise break the bit-determinism contract the trajectory fold relies
/// on.
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
