// Two-tier RunCache: the persistent disk tier (exec/disk_cache.hpp) and
// the memory tier's true-LRU behavior.
//
// The disk tier is what turns the run cache from a per-process
// optimization into cross-process memoization — the property charterd is
// built on — so these tests hit the contract hard: bit-identical
// round-trips across cache instances (a daemon restart), corruption and
// truncation tolerated as misses rather than failures, two *processes*
// sharing one directory (fork, not threads: rename-based publish is the
// only coordination), and byte-budget eviction in LRU order.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <list>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cache.hpp"
#include "exec/disk_cache.hpp"
#include "util/rng.hpp"

namespace ex = charter::exec;
namespace fs = std::filesystem;

namespace {

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("charter_cache_test_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ex::Fingerprint key_of(std::uint64_t i) {
  ex::FingerprintBuilder b;
  b.mix(i * 0x9e3779b97f4a7c15ULL + 1);
  return b.result();
}

std::vector<double> payload_of(std::uint64_t i, std::size_t n = 8) {
  std::vector<double> p(n);
  for (std::size_t k = 0; k < n; ++k)
    p[k] = 1.0 / static_cast<double>(i + k + 1);
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Disk tier: persistence contract
// ---------------------------------------------------------------------------

TEST(DiskCache, RoundTripsBitIdenticalAcrossInstances) {
  ScratchDir dir("roundtrip");
  const std::vector<double> stored = payload_of(7, 32);
  {
    ex::DiskCacheTier tier(dir.path(), 1ull << 20);
    tier.store(key_of(7), stored);
  }
  // A new instance over the same directory — a daemon restart.
  ex::DiskCacheTier tier(dir.path(), 1ull << 20);
  const auto loaded = tier.load(key_of(7));
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), stored.size());
  for (std::size_t k = 0; k < stored.size(); ++k)
    EXPECT_EQ((*loaded)[k], stored[k]) << "double " << k;  // bit-identical
  EXPECT_FALSE(tier.load(key_of(8)).has_value());
}

TEST(DiskCache, RunCacheServesFromDiskAfterMemoryTierDropped) {
  ScratchDir dir("promote");
  ex::RunCache cache(1ull << 20);
  cache.set_disk_tier(dir.path(), 1ull << 20);
  cache.store(key_of(1), payload_of(1));
  cache.clear();  // drop the memory tier only — the restart semantics

  ex::CacheTier served = ex::CacheTier::kNone;
  const auto hit = cache.lookup(key_of(1), &served);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(served, ex::CacheTier::kDisk);
  EXPECT_EQ(*hit, payload_of(1));

  // The disk hit was promoted: the next lookup is served from memory.
  const auto again = cache.lookup(key_of(1), &served);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(served, ex::CacheTier::kMemory);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.disk.hits, 1u);
  EXPECT_EQ(stats.memory.hits, 1u);
}

// ---------------------------------------------------------------------------
// Disk tier: corruption tolerance
// ---------------------------------------------------------------------------

namespace {

std::string entry_path(const ScratchDir& dir, const ex::Fingerprint& key) {
  return (fs::path(dir.path()) / ex::DiskCacheTier::entry_filename(key))
      .string();
}

}  // namespace

TEST(DiskCache, CorruptedPayloadIsAMissAndIsRemoved) {
  ScratchDir dir("corrupt");
  ex::DiskCacheTier tier(dir.path(), 1ull << 20);
  tier.store(key_of(3), payload_of(3));

  // Flip one payload byte; the checksum must catch it.
  {
    std::fstream f(entry_path(dir, key_of(3)),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);  // inside the payload (header is 32 bytes)
    f.put('\x5a');
  }
  EXPECT_FALSE(tier.load(key_of(3)).has_value());
  EXPECT_EQ(tier.stats().corrupt_skipped, 1u);
  // The poisoned file is gone, so the slot can be refilled.
  EXPECT_FALSE(fs::exists(entry_path(dir, key_of(3))));
  tier.store(key_of(3), payload_of(3));
  EXPECT_TRUE(tier.load(key_of(3)).has_value());
}

TEST(DiskCache, TruncatedEntryIsAMissNotAFailure) {
  ScratchDir dir("truncate");
  ex::DiskCacheTier tier(dir.path(), 1ull << 20);
  tier.store(key_of(4), payload_of(4, 64));
  fs::resize_file(entry_path(dir, key_of(4)), 48);  // mid-payload
  EXPECT_FALSE(tier.load(key_of(4)).has_value());
  EXPECT_EQ(tier.stats().corrupt_skipped, 1u);
}

TEST(DiskCache, WrongMagicVersionOrKeyIsAMiss) {
  ScratchDir dir("header");
  ex::DiskCacheTier tier(dir.path(), 1ull << 20);
  tier.store(key_of(5), payload_of(5));
  // A file whose name claims key 6 but whose header says key 5 (a renamed
  // or mis-copied entry) must not be served as key 6.
  fs::copy_file(entry_path(dir, key_of(5)), entry_path(dir, key_of(6)));
  EXPECT_FALSE(tier.load(key_of(6)).has_value());
  // Key 5's own entry is untouched.
  EXPECT_TRUE(tier.load(key_of(5)).has_value());

  {
    std::fstream f(entry_path(dir, key_of(5)),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');  // break the magic
  }
  EXPECT_FALSE(tier.load(key_of(5)).has_value());
}

TEST(DiskCache, StrayFilesInTheDirectoryAreIgnored) {
  ScratchDir dir("stray");
  fs::create_directories(dir.path());
  std::ofstream(fs::path(dir.path()) / "README.txt") << "not a cache entry";
  std::ofstream(fs::path(dir.path()) / ".tmp-999-0") << "orphaned temp";
  ex::DiskCacheTier tier(dir.path(), 1ull << 20);
  tier.store(key_of(9), payload_of(9));
  EXPECT_TRUE(tier.load(key_of(9)).has_value());
  EXPECT_EQ(tier.stats().entries, 1u);  // strays are not entries
}

// ---------------------------------------------------------------------------
// Disk tier: LRU byte budget
// ---------------------------------------------------------------------------

TEST(DiskCache, BudgetEvictsLeastRecentlyUsedFirst) {
  ScratchDir dir("lru");
  // Each entry: 32B header + 8*8B payload + 8B checksum = 104 bytes.
  const std::size_t entry_bytes = 32 + 8 * sizeof(double) + 8;
  ex::DiskCacheTier tier(dir.path(), entry_bytes * 3);

  tier.store(key_of(0), payload_of(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tier.store(key_of(1), payload_of(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tier.store(key_of(2), payload_of(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Touch key 0: its mtime is refreshed, so key 1 is now the oldest.
  ASSERT_TRUE(tier.load(key_of(0)).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  tier.store(key_of(3), payload_of(3));  // over budget: one eviction
  EXPECT_TRUE(tier.load(key_of(0)).has_value()) << "recently used, kept";
  EXPECT_FALSE(tier.load(key_of(1)).has_value()) << "LRU victim";
  EXPECT_TRUE(tier.load(key_of(2)).has_value());
  EXPECT_TRUE(tier.load(key_of(3)).has_value());
  EXPECT_GE(tier.stats().evictions, 1u);
}

TEST(DiskCache, MemoryTierHitRefreshesDiskEntryMtime) {
  ScratchDir dir("memtouch");
  const std::size_t entry_bytes = 32 + 8 * sizeof(double) + 8;
  ex::RunCache cache(1ull << 20);
  cache.set_disk_tier(dir.path(), entry_bytes * 3);
  for (std::uint64_t i = 0; i < 3; ++i) cache.store(key_of(i), payload_of(i));

  // Simulate a coarse-mtime filesystem: the whole store burst lands on a
  // single timestamp tick for keys 1/2, and key 0 is older still.
  const auto stamp =
      fs::file_time_type::clock::now() - std::chrono::hours(2);
  fs::last_write_time(entry_path(dir, key_of(0)),
                      stamp - std::chrono::hours(1));
  fs::last_write_time(entry_path(dir, key_of(1)), stamp);
  fs::last_write_time(entry_path(dir, key_of(2)), stamp);

  // Key 0 is the hottest entry, but it is served from the *memory* tier —
  // the disk file is never read again after promotion.  The memory hit
  // must still refresh the disk mtime, or the LRU sweep below would evict
  // the hottest entry first.
  ex::CacheTier served = ex::CacheTier::kNone;
  ASSERT_TRUE(cache.lookup(key_of(0), &served).has_value());
  EXPECT_EQ(served, ex::CacheTier::kMemory);

  cache.store(key_of(3), payload_of(3));  // disk over budget: one eviction
  EXPECT_TRUE(fs::exists(entry_path(dir, key_of(0))))
      << "memory-hot entry must survive the mtime-LRU sweep";
  EXPECT_TRUE(fs::exists(entry_path(dir, key_of(3))));
  int cold_left = 0;
  for (std::uint64_t i = 1; i <= 2; ++i)
    if (fs::exists(entry_path(dir, key_of(i)))) ++cold_left;
  EXPECT_EQ(cold_left, 1) << "exactly one cold entry evicted";
}

TEST(DiskCache, OversizedEntryIsNotAdmitted) {
  ScratchDir dir("oversize");
  ex::DiskCacheTier tier(dir.path(), 64);  // smaller than any entry
  tier.store(key_of(1), payload_of(1, 128));
  EXPECT_FALSE(tier.load(key_of(1)).has_value());
  EXPECT_EQ(tier.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Disk tier: two processes sharing one directory
// ---------------------------------------------------------------------------

TEST(DiskCache, TwoProcessesShareOneDirectory) {
  ScratchDir dir("fork");
  constexpr std::uint64_t kKeys = 40;

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: its own tier instance over the same directory, storing the
    // odd keys and reading whatever is there.  _exit keeps gtest state
    // from double-reporting.
    ex::DiskCacheTier tier(dir.path(), 1ull << 20);
    for (std::uint64_t i = 1; i < kKeys; i += 2) {
      tier.store(key_of(i), payload_of(i));
      (void)tier.load(key_of(i / 2));
    }
    ::_exit(0);
  }
  ex::DiskCacheTier tier(dir.path(), 1ull << 20);
  for (std::uint64_t i = 0; i < kKeys; i += 2) {
    tier.store(key_of(i), payload_of(i));
    (void)tier.load(key_of(i / 2));
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // Every key from both writers is present and intact.
  ex::DiskCacheTier check(dir.path(), 1ull << 20);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const auto hit = check.load(key_of(i));
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_EQ(*hit, payload_of(i)) << "key " << i;
  }
}

// ---------------------------------------------------------------------------
// Memory tier: true LRU
// ---------------------------------------------------------------------------

TEST(RunCacheLru, LookupRefreshesRecencyWithinAStripe) {
  // Five same-stripe entries against a ~2-per-stripe budget.  Under FIFO
  // the first-stored entry dies regardless of use; under LRU a lookup
  // keeps it alive and the eviction falls on the oldest *unused* entry.
  ex::RunCache cache(2 * 16 * 2 * sizeof(double));
  std::vector<ex::Fingerprint> same_stripe;
  const std::size_t stripe = ex::RunCache::shard_index(key_of(0));
  for (std::uint64_t i = 0; same_stripe.size() < 3; ++i)
    if (ex::RunCache::shard_index(key_of(i)) == stripe)
      same_stripe.push_back(key_of(i));

  cache.store(same_stripe[0], {0.0, 0.5});
  cache.store(same_stripe[1], {1.0, 0.5});
  ASSERT_TRUE(cache.lookup(same_stripe[0]).has_value());  // refresh [0]
  cache.store(same_stripe[2], {2.0, 0.5});  // evicts one entry

  EXPECT_TRUE(cache.lookup(same_stripe[0]).has_value())
      << "recently used entry must survive";
  EXPECT_FALSE(cache.lookup(same_stripe[1]).has_value()) << "LRU victim";
  EXPECT_TRUE(cache.lookup(same_stripe[2]).has_value());
  EXPECT_EQ(cache.stats().memory.evictions, 1u);
}

TEST(RunCacheLru, TierStatsCountHitsMissesAndEntries) {
  ex::RunCache cache(1ull << 20);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  cache.store(key_of(1), payload_of(1));
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.memory.hits, 1u);
  EXPECT_EQ(stats.memory.misses, 1u);
  EXPECT_EQ(stats.memory.entries, 1u);
  EXPECT_EQ(stats.disk.hits, 0u);  // no tier attached: all zeros
  EXPECT_EQ(stats.disk.entries, 0u);
  // Legacy aggregates stay coherent.
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(RunCacheLru, ClearDiskWipesEntriesButKeepsTheTier) {
  ScratchDir dir("cleardisk");
  ex::RunCache cache(1ull << 20);
  cache.set_disk_tier(dir.path(), 1ull << 20);
  cache.store(key_of(1), payload_of(1));
  cache.clear();
  cache.clear_disk();
  EXPECT_TRUE(cache.has_disk_tier());
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  cache.store(key_of(2), payload_of(2));
  cache.clear();
  EXPECT_TRUE(cache.lookup(key_of(2)).has_value()) << "tier still writable";
}

namespace {

/// A sampled distribution as counts_to_distribution() returns it: \p n
/// outcomes, \p shots shots.
std::vector<double> sampled(std::size_t n, std::uint64_t shots,
                            charter::util::Rng& rng) {
  std::vector<std::uint64_t> counts(n, 0);
  for (std::uint64_t s = 0; s < shots; ++s) ++counts[rng.uniform_int(n)];
  std::vector<double> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<double>(counts[i]) / static_cast<double>(shots);
  return p;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

}  // namespace

TEST(RunCacheLru, CompactEntriesRoundTripBitIdentical) {
  charter::util::Rng rng(29);
  ex::RunCache cache(64ull << 20);
  std::uint64_t next_key = 0;
  const auto round_trip = [&](const std::vector<double>& p, bool inline_form,
                              const std::string& what) {
    EXPECT_EQ(ex::RunCache::stores_inline(p), inline_form) << what;
    const ex::Fingerprint key = key_of(next_key++);
    cache.store(key, p);
    const auto got = cache.lookup(key);
    ASSERT_TRUE(got.has_value()) << what;
    EXPECT_TRUE(same_bits(*got, p)) << what;
  };

  // Inline: dyadic results of 1..32 outcomes, sampled or concentrated on
  // one outcome (1.0 needs e = 0).
  for (std::size_t n = 1; n <= ex::RunCache::kInlineOutcomes; ++n) {
    for (const std::uint64_t shots : {4096u, 8192u}) {
      round_trip(sampled(n, shots, rng), true,
                 "n=" + std::to_string(n) + " shots=" + std::to_string(shots));
    }
    std::vector<double> one(n, 0.0);
    one[n - 1] = 1.0;
    round_trip(one, true, "all mass on one outcome, n=" + std::to_string(n));
  }

  // Raw fallbacks.
  for (const std::size_t n : {2u, 8u, 32u})
    round_trip(sampled(n, 1000, rng), false, "1000 shots");
  round_trip({0.1, 0.2, 0.7}, false, "exact probabilities");
  round_trip({std::cos(0.3) * std::cos(0.3), std::sin(0.3) * std::sin(0.3)},
             false, "exact probabilities (cos^2, sin^2)");
  round_trip(sampled(33, 8192, rng), false, "33 outcomes");
  round_trip(sampled(64, 4096, rng), false, "64 outcomes");
  round_trip({0.5, -0.0, 0.5}, false, "-0.0");
  const double tiny = std::numeric_limits<double>::denorm_min();
  round_trip({tiny, 0.0}, false, "a lone denormal");
  round_trip({0.5, tiny, 0.5}, false, "a denormal beside normal values");
  round_trip({0.25, 70000.0}, false, "k >= 2^16");

  // Eviction over mixed inline and raw entries follows LRU order.  Every
  // payload is 8 outcomes (64 decoded bytes) and the stripe holds three.
  ex::RunCache small(ex::RunCache::kNumShards * 3 * 8 * sizeof(double));
  std::vector<ex::Fingerprint> keys;
  std::vector<std::vector<double>> payloads;
  const std::size_t stripe = ex::RunCache::shard_index(key_of(1000));
  for (std::uint64_t i = 1000; keys.size() < 12; ++i) {
    if (ex::RunCache::shard_index(key_of(i)) != stripe) continue;
    keys.push_back(key_of(i));
    payloads.push_back(sampled(8, keys.size() % 2 == 0 ? 8192 : 1000, rng));
    ASSERT_EQ(ex::RunCache::stores_inline(payloads.back()),
              keys.size() % 2 == 0);
  }
  std::list<std::size_t> model;  // front = coldest
  std::size_t evictions = 0;
  const auto use = [&](std::size_t i) {
    model.remove(i);
    model.push_back(i);
  };
  for (int step = 0; step < 300; ++step) {
    const std::size_t i = rng.uniform_int(keys.size());
    const bool present =
        std::find(model.begin(), model.end(), i) != model.end();
    if (rng.bernoulli(0.5)) {
      small.store(keys[i], payloads[i]);
      if (!present && model.size() == 3) {
        model.pop_front();
        ++evictions;
      }
      use(i);
    } else {
      const auto got = small.lookup(keys[i]);
      ASSERT_EQ(got.has_value(), present) << "step " << step << " key " << i;
      if (present) {
        EXPECT_TRUE(same_bits(*got, payloads[i]));
        use(i);
      }
    }
    ASSERT_EQ(small.stats().memory.evictions, evictions) << "step " << step;
    ASSERT_EQ(small.stats().memory.entries, model.size()) << "step " << step;
    ASSERT_EQ(small.stats().memory.bytes, model.size() * 8 * sizeof(double));
  }
}

