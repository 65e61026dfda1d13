#pragma once

/// \file amp_buffer.hpp
/// The one buffer type for amplitudes a kernel walks.
///
/// Alignment rule: every engine state buffer starts on a 64-byte cache
/// line.  That covers vec(rho) of the density-matrix engine with its Kraus
/// scratch and accumulator and its diagonal row/column factor tables, the
/// statevector amplitudes (the lone trajectory engines and the lane batch's
/// per-lane scratch), the trajectory lane block, and the checkpoint and
/// worker snapshots that are loaded into them.  A kernel pass walks its
/// buffer from the start in whole vector registers, so on a line-aligned
/// buffer no AVX-512 load or store spans two cache lines.  A plain
/// std::vector<cplx> of 4 KiB or more came back at 16 mod 64 from glibc,
/// which split every such access (bench_sim_kernels' `dm_align` rows time
/// the density-matrix kernels on both layouts).  Alignment moves no bit:
/// each kernel's per-element arithmetic and dispatch are the same on
/// either address.
///
/// CacheLineAllocator over-allocates one cache line through the ordinary
/// ::operator new and hands out the first line boundary past the block's
/// start, keeping the block's address in the bytes just before it.  Large
/// buffers so stay on glibc's ordinary large-block path, and peak RSS
/// grows by at most 64 bytes per buffer (an aligned ::operator new takes
/// the memalign path instead, which raised trajectory-sweep RSS by about
/// 4 MiB).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

#include "math/matrix.hpp"

namespace charter::math {

/// Bytes of one cache line, the alignment of every AmpBuffer.
inline constexpr std::size_t kCacheLine = 64;

/// Stateless allocator whose blocks start on a kCacheLine boundary.
template <typename T>
class CacheLineAllocator {
 public:
  using value_type = T;

  CacheLineAllocator() noexcept = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - kCacheLine) / sizeof(T))
      throw std::bad_array_new_length();
    char* raw = static_cast<char*>(::operator new(bytes(n)));
    // ::operator new aligns to at least a pointer, so the next line
    // boundary leaves room in front of it for the block address.
    char* line =
        raw + (kCacheLine - reinterpret_cast<std::uintptr_t>(raw) % kCacheLine);
    std::memcpy(line - sizeof(raw), &raw, sizeof(raw));
    return reinterpret_cast<T*>(line);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    char* raw = nullptr;
    std::memcpy(&raw, reinterpret_cast<char*>(p) - sizeof(raw), sizeof(raw));
    ::operator delete(raw, bytes(n));
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) noexcept {
    return true;
  }

 private:
  static std::size_t bytes(std::size_t n) { return n * sizeof(T) + kCacheLine; }
};

/// Complex amplitudes on a cache-line-aligned block (see the file comment).
using AmpBuffer = std::vector<cplx, CacheLineAllocator<cplx>>;

}  // namespace charter::math
