#include "exec/disk_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "exec/cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#ifdef _WIN32
#error "DiskCacheTier uses POSIX pid/rename semantics"
#else
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace charter::exec {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'C', 'H', 'D', '\1'};
constexpr std::uint32_t kFormatVersion = 1;

/// Fixed-size entry header; the payload doubles and the trailing checksum
/// follow it directly.
struct EntryHeader {
  char magic[4];
  std::uint32_t version;
  std::uint64_t key_lo;
  std::uint64_t key_hi;
  std::uint64_t count;
};
static_assert(sizeof(EntryHeader) == 32);

std::uint64_t payload_checksum(const std::vector<double>& payload) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ payload.size();
  std::uint64_t h = util::splitmix64(state);
  for (const double v : payload) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    state ^= bits;
    h ^= util::splitmix64(state);
  }
  return h;
}

std::size_t entry_file_bytes(std::size_t count) {
  return sizeof(EntryHeader) + count * sizeof(double) + sizeof(std::uint64_t);
}

/// Final entry names are exactly 32 hex chars + ".chd"; everything else in
/// the directory (temp files, stray content) is ignored by scans.
bool is_entry_name(const std::string& name) {
  if (name.size() != 36 || name.compare(32, 4, ".chd") != 0) return false;
  return std::all_of(name.begin(), name.begin() + 32, [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

}  // namespace

std::string DiskCacheTier::entry_filename(const Fingerprint& key) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx.chd",
                static_cast<unsigned long long>(key.hi),
                static_cast<unsigned long long>(key.lo));
  return buf;
}

DiskCacheTier::DiskCacheTier(std::string dir, std::size_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  require(!dir_.empty(), "disk cache tier needs a directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  require(!ec && fs::is_directory(dir_),
          "cannot create cache directory '" + dir_ + "': " + ec.message());
  const std::lock_guard<std::mutex> lock(mu_);
  enforce_budget_locked();
}

std::optional<std::vector<double>> DiskCacheTier::load(const Fingerprint& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const fs::path path = fs::path(dir_) / entry_filename(key);

  // Failures below fall through to this label: count, drop the bad file so
  // it cannot keep masking the slot, and report a miss.
  const auto corrupt = [&]() -> std::optional<std::vector<double>> {
    ++stats_.corrupt_skipped;
    ++stats_.misses;
    std::error_code ec;
    fs::remove(path, ec);  // best-effort; another process may already have
    return std::nullopt;
  };

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  EntryHeader header{};
  std::vector<double> payload;
  std::uint64_t check = 0;
  const bool ok = [&] {
    if (std::fread(&header, sizeof(header), 1, f) != 1) return false;
    if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) return false;
    if (header.version != kFormatVersion) return false;
    if (header.key_lo != key.lo || header.key_hi != key.hi) return false;
    // An absurd count means a corrupt header; don't let it drive a huge
    // allocation.  1 << 28 doubles = 2 GiB, far beyond any distribution.
    if (header.count > (std::uint64_t{1} << 28)) return false;
    // Nor a count the file does not hold: size it before allocating.
    struct stat st {};
    if (::fstat(::fileno(f), &st) != 0 ||
        static_cast<std::uint64_t>(st.st_size) !=
            entry_file_bytes(static_cast<std::size_t>(header.count)))
      return false;
    payload.resize(static_cast<std::size_t>(header.count));
    if (!payload.empty() &&
        std::fread(payload.data(), sizeof(double), payload.size(), f) !=
            payload.size())
      return false;
    if (std::fread(&check, sizeof(check), 1, f) != 1) return false;
    // Trailing garbage after the checksum is also a malformed entry.
    if (std::fgetc(f) != EOF) return false;
    return check == payload_checksum(payload);
  }();
  std::fclose(f);
  if (!ok) return corrupt();

  // Refresh the LRU stamp so budget eviction drops cold entries first.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  ++stats_.hits;
  return payload;
}

void DiskCacheTier::touch(const Fingerprint& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const fs::path path = fs::path(dir_) / entry_filename(key);
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  // Errors (entry evicted by another process, read-only dir) are benign:
  // the worst case is one stale LRU stamp.
}

void DiskCacheTier::store(const Fingerprint& key,
                          const std::vector<double>& distribution) {
  const std::size_t bytes = entry_file_bytes(distribution.size());
  if (bytes > max_bytes_) return;  // can never fit; don't thrash the tier
  const std::lock_guard<std::mutex> lock(mu_);
  const fs::path path = fs::path(dir_) / entry_filename(key);

  std::error_code ec;
  if (fs::exists(path, ec)) {
    // Results for one key are identical by construction; refresh LRU only.
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return;
  }

  const fs::path temp =
      fs::path(dir_) / (".tmp-" + std::to_string(::getpid()) + "-" +
                        std::to_string(temp_seq_++));
  std::FILE* f = std::fopen(temp.c_str(), "wb");
  if (f == nullptr) return;  // unwritable cache dir degrades to memory-only
  EntryHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.key_lo = key.lo;
  header.key_hi = key.hi;
  header.count = distribution.size();
  const std::uint64_t check = payload_checksum(distribution);
  const bool ok =
      std::fwrite(&header, sizeof(header), 1, f) == 1 &&
      (distribution.empty() ||
       std::fwrite(distribution.data(), sizeof(double), distribution.size(),
                   f) == distribution.size()) &&
      std::fwrite(&check, sizeof(check), 1, f) == 1;
  const bool flushed = std::fclose(f) == 0;
  if (!ok || !flushed) {
    fs::remove(temp, ec);
    return;
  }
  fs::rename(temp, path, ec);  // atomic publish; loser of a race overwrites
  if (ec) {
    fs::remove(temp, ec);
    return;
  }
  approx_bytes_ += bytes;
  ++stats_.entries;
  stats_.bytes = approx_bytes_;
  if (approx_bytes_ > max_bytes_) enforce_budget_locked();
}

void DiskCacheTier::enforce_budget_locked() {
  // Rescan rather than trusting the running total: other processes share
  // this directory, and their stores/evictions are invisible to our
  // counters.
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::size_t bytes;
  };
  std::vector<Entry> entries;
  std::size_t total = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (!is_entry_name(de.path().filename().string())) continue;
    std::error_code fec;
    const std::size_t bytes =
        static_cast<std::size_t>(de.file_size(fec));
    const fs::file_time_type mtime = de.last_write_time(fec);
    if (fec) continue;  // vanished mid-scan (concurrent eviction)
    entries.push_back({de.path(), mtime, bytes});
    total += bytes;
  }
  if (total > max_bytes_) {
    // Oldest mtime first; ties broken by name so two processes scanning the
    // same state pick the same victims.
    std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                                 const Entry& b) {
      if (a.mtime != b.mtime) return a.mtime < b.mtime;
      return a.path.filename() < b.path.filename();
    });
    for (const Entry& e : entries) {
      if (total <= max_bytes_) break;
      std::error_code rec;
      if (fs::remove(e.path, rec) && !rec) {
        total -= e.bytes;
        ++stats_.evictions;
      }
    }
  }
  approx_bytes_ = total;
  stats_.bytes = total;
  stats_.entries = 0;
  for (const auto& de : fs::directory_iterator(dir_, ec))
    if (is_entry_name(de.path().filename().string())) ++stats_.entries;
}

DiskCacheTier::Stats DiskCacheTier::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace charter::exec
