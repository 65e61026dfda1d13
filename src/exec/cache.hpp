#pragma once

/// \file cache.hpp
/// Two-tier, process-wide memoization of backend runs.
///
/// Every FakeBackend execution is deterministic in (program, backend,
/// RunOptions), so identical submissions — repeated CLI invocations inside
/// one process, the bench sweeps that share configs, different charterd
/// tenants submitting the same circuit, and the mitigation workflow's
/// re-analysis of an unchanged program — can be served from a cache instead
/// of the simulator.  Entries are keyed on a 128-bit structural fingerprint
/// covering the compiled circuit, the device (its topology name *and* full
/// calibration data, so two devices that merely share a name never
/// collide), the run options — including the tape optimization level, so
/// exact and fused-wide runs of the same circuit never collide — and the
/// NoiseProgram schema fingerprint, which invalidates every entry if the
/// lowering pipeline's semantics change.
///
/// Two tiers:
///
///  - Memory: thread-safe and bounded.  Since the sharded analysis driver
///    hits it from every pool worker at once, the store is *striped*:
///    entries hash onto kNumShards independent shards, each with its own
///    mutex, map, byte budget, and LRU list, so concurrent lookups and
///    stores on distinct keys almost never contend on a lock.  The 128-bit
///    key spreads uniformly, so the per-shard budget (total / kNumShards)
///    fills evenly.  Eviction is true LRU: a lookup hit moves the entry to
///    the warm end of its shard's recency list.  That list is intrusive:
///    each entry is one unordered_map node holding the key, the prev/next
///    links (map nodes never move, so the links point at them) and the
///    payload, which is either inline numerators (see Payload) or one
///    heap block of raw doubles.  An inline entry costs about 143 B of
///    RSS.
///  - Disk (optional; DiskCacheTier): fingerprint-keyed files under a cache
///    directory, attached via set_disk_tier() — the CLI's --cache-dir /
///    CHARTER_CACHE_DIR plumbing and charterd's startup both point here.
///    A memory miss falls through to disk; a disk hit is promoted into the
///    memory tier.  Stores write through, so results survive restarts and
///    are shared across processes.
///
/// exec::BatchRunner consults the cache before scheduling work; nothing
/// below the exec layer knows it exists.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "backend/backend.hpp"

namespace charter::exec {

class DiskCacheTier;

/// 128-bit fingerprint: two independently mixed 64-bit streams, so a
/// collision requires defeating both.  Used as a cache key.
struct Fingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const Fingerprint&) const = default;
};

/// Incremental fingerprint builder (splitmix64-based, deterministic across
/// platforms).
class FingerprintBuilder {
 public:
  FingerprintBuilder();

  void mix(std::uint64_t v);
  void mix_double(double v);
  void mix_string(const std::string& s);

  Fingerprint result() const { return fp_; }

 private:
  Fingerprint fp_;
};

/// Structural fingerprint of a circuit: width plus every op's kind,
/// operands, parameters, and flags.
Fingerprint fingerprint(const circ::Circuit& c);

/// Fingerprint of a compiled program (circuit + layout + logical width).
Fingerprint fingerprint(const backend::CompiledProgram& program);

/// Fingerprint of the execution-relevant options (engine, shots,
/// trajectories, seed, drift).
Fingerprint fingerprint(const backend::RunOptions& options);

/// Fingerprint of a device via Backend::cache_identity() (for FakeBackend:
/// name, coupling graph, and the full calibration table).  nullopt when the
/// backend declares itself uncacheable — its runs are never memoized.
std::optional<Fingerprint> fingerprint(const backend::Backend& backend);

/// Combined cache key for one run.  Requires a cacheable backend (throws
/// InvalidArgument otherwise); batch code paths should use the
/// precomputed-device overload below and skip caching on nullopt.
Fingerprint run_key(const backend::CompiledProgram& program,
                    const backend::Backend& backend,
                    const backend::RunOptions& options);

/// Same, with the device fingerprint precomputed (batch submissions hash
/// the calibration table once, not once per job).
Fingerprint run_key(const backend::CompiledProgram& program,
                    const Fingerprint& device,
                    const backend::RunOptions& options);

/// Which tier served a lookup (kNone = miss).
enum class CacheTier { kNone, kMemory, kDisk };

/// Bounded, thread-safe, lock-striped memoization of run results (logical
/// distributions), optionally backed by a persistent disk tier.
class RunCache {
 public:
  /// Independent lock stripes; a power of two so shard selection is a mask.
  static constexpr std::size_t kNumShards = 16;
  /// Widest distribution a memory-tier entry can hold inline.
  static constexpr std::size_t kInlineOutcomes = 32;

  /// \p max_bytes bounds the decoded payload bytes of stored
  /// distributions, 8 per outcome (a 16-logical-qubit result is 512 KiB, a
  /// 7-qubit one under 1 KiB, so the bound is on payload bytes rather than
  /// entry count).  It does not bound resident bytes: an inline entry
  /// keeps its numerators in a fixed 64 B array inside its map node, every
  /// entry adds that node, and both forms count the same bytes, so
  /// eviction order does not depend on the layout.  The budget is
  /// split evenly across the shards for eviction purposes; admission is
  /// against the full budget, so an entry larger than one shard's share is
  /// still cacheable (it then holds its stripe alone).
  explicit RunCache(std::size_t max_bytes = 256ull << 20);
  ~RunCache();

  /// The process-wide instance BatchRunner uses by default.  Constructed
  /// memory-only; the CLI/daemon attach the disk tier explicitly after
  /// resolving --cache-dir / CHARTER_CACHE_DIR, so library users and tests
  /// stay hermetic.
  static RunCache& global();

  /// Attaches (or, with an empty \p dir, detaches) the persistent tier.
  /// Replaces any previously attached tier; process-wide when called on
  /// global().  Throws InvalidArgument when the directory cannot be
  /// created.
  void set_disk_tier(const std::string& dir,
                     std::size_t max_bytes = 1ull << 30);
  bool has_disk_tier() const;
  /// The attached tier's directory ("" when memory-only).
  std::string disk_dir() const;

  /// Returns the cached distribution for \p key, or nullopt on a miss.
  /// Memory is consulted first (locking only \p key's shard; a hit
  /// refreshes LRU recency), then the disk tier; a disk hit is promoted
  /// into the memory tier.  \p served (optional) reports the tier that
  /// answered.
  std::optional<std::vector<double>> lookup(const Fingerprint& key,
                                            CacheTier* served = nullptr);

  /// Stores a result in the memory tier (evicting the shard's
  /// least-recently-used entries past its budget) and writes through to the
  /// disk tier when one is attached.  Storing an existing key refreshes
  /// recency only (results for a given key are identical by construction).
  void store(const Fingerprint& key, const std::vector<double>& distribution);

  /// Drops every memory-tier entry and resets the counters.  The disk tier
  /// keeps its files (that persistence is its contract — a daemon restart
  /// is exactly this); use clear_disk() to wipe it.
  void clear();

  /// Unlinks every entry file in the attached disk tier.
  void clear_disk();

  /// Per-tier counters.  For memory, entries/bytes are current occupancy;
  /// for disk they reflect the most recent directory scan.
  struct TierStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  struct Stats {
    TierStats memory;
    TierStats disk;  ///< zeros when no disk tier is attached
    /// Aggregates over both tiers.  `hits` counts every served lookup
    /// (memory.hits + disk.hits); `misses` counts lookups neither tier
    /// answered; `entries` is the memory tier's occupancy (the historical
    /// meaning); `evictions` sums both tiers.
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
    std::size_t evictions = 0;
  };
  /// Aggregated over all shards; a consistent per-shard snapshot, not a
  /// global atomic one (concurrent writers may land between shard reads).
  Stats stats() const;

  /// Whether the memory tier would hold \p distribution inline rather
  /// than as raw doubles (exposed for the layout tests).
  static bool stores_inline(const std::vector<double>& distribution);

  /// Shard index \p key maps to (exposed for the striping tests).
  static std::size_t shard_index(const Fingerprint& key) {
    // Deliberately different bit mix than KeyHash, so the stripe choice and
    // the in-shard bucket choice stay independent.
    return static_cast<std::size_t>(
        (key.hi ^ (key.lo >> 17) ^ (key.lo << 9)) & (kNumShards - 1));
  }

 private:
  struct KeyHash {
    std::size_t operator()(const Fingerprint& f) const {
      return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  /// One cached distribution.  At most kInlineOutcomes values that are
  /// all k * 2^-e (k < 2^16, one e per entry) are stored inline as the
  /// uint16 numerators k; every 4096- or 8192-shot result on <= 5 logical
  /// qubits has that form.  Anything else (shots = 0, other shot counts,
  /// wider results, -0.0) keeps its raw doubles in a heap block.  The
  /// choice is checked at store time: inline only when the decode equals
  /// the input bit for bit.
  class Payload {
   public:
    explicit Payload(const std::vector<double>& distribution);
    ~Payload();
    Payload(const Payload&) = delete;
    Payload& operator=(const Payload&) = delete;

    std::vector<double> decode() const;
    /// Decoded payload bytes: what the budget counts.
    std::size_t bytes() const { return size_ * sizeof(double); }
    bool is_inline() const { return exponent_ >= 0; }

   private:
    /// Fills k_ and exponent_ and returns true when \p values decode back
    /// bit for bit from them; leaves the payload untouched otherwise.
    bool encode_inline(const std::vector<double>& values);

    union {
      std::uint16_t k_[kInlineOutcomes];
      double* raw_;
    };
    std::uint32_t size_ = 0;
    std::int8_t exponent_ = -1;  ///< e when inline; -1 = raw_ owns size_
  };

  struct Entry;
  using Node = std::pair<const Fingerprint, Entry>;  ///< a map value

  /// The payload plus the shard's intrusive LRU links.
  struct Entry {
    explicit Entry(const std::vector<double>& distribution)
        : payload(distribution) {}
    Payload payload;
    Node* prev = nullptr;  ///< colder neighbour
    Node* next = nullptr;  ///< warmer neighbour
  };
  using EntryMap = std::unordered_map<Fingerprint, Entry, KeyHash>;

  /// One lock stripe: a self-contained LRU-evicting map.
  struct Shard {
    mutable std::mutex mu;
    std::size_t stored_bytes = 0;
    EntryMap entries;
    Node* coldest = nullptr;  ///< LRU list ends
    Node* warmest = nullptr;
    TierStats stats;  ///< entries/bytes maintained on the fly

    void unlink(Node& node);
    void push_warmest(Node& node);
  };

  /// Inserts into \p shard (caller holds its mutex), evicting LRU entries
  /// past the shard budget.  No-op when the key is present.
  void store_in_shard(Shard& shard, const Fingerprint& key,
                      const std::vector<double>& distribution);

  std::size_t max_bytes_;     ///< admission limit (constructor contract)
  std::size_t shard_budget_;  ///< max_bytes / kNumShards (eviction target)
  std::array<Shard, kNumShards> shards_;

  mutable std::mutex disk_mu_;  ///< guards the tier pointer, not its calls
  std::shared_ptr<DiskCacheTier> disk_;
};

}  // namespace charter::exec
