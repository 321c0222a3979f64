#pragma once
// Content-addressed result cache for the campaign service. Results are
// keyed on JobRequest::hash() (the canonical request serialization's
// FNV-1a64), so a re-submitted request is answered from disk instead of
// re-running the solver - the solver is deterministic in everything the
// canonical form captures, which makes the cached bytes bitwise-identical
// to what a fresh run would produce.
//
// Each entry is one file `<dir>/<hash>.res`:
//
//   "PSDNSRES" magic (8 bytes) | u32 version | u64 payload bytes |
//   u32 payload crc32c | payload (the result JSON document)
//
// Entries are util::AtomicFiles written under a default RetryPolicy (fault
// site svc.result.write). A short, truncated or CRC-mismatching file is
// treated as absent and removed (the job simply re-runs), mirroring the
// checkpoint chain's fail-safe posture. Capacity is bounded by keep-K LRU
// eviction: lookup and insert both refresh recency, and insert evicts the
// stalest entries beyond `keep`. The store is thread-safe; the scheduler's
// workers and the HTTP front end share one instance.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace psdns::svc {

class ResultStore {
 public:
  struct Options {
    std::string dir;   // created if missing
    int keep = 32;     // max entries retained (>= 1)
  };

  /// Opens (creating the directory if needed) and indexes existing
  /// entries, oldest-first by file write time so pre-existing results
  /// evict before anything touched this run. Throws util::Error when the
  /// directory cannot be created or `keep` < 1.
  explicit ResultStore(Options options);

  /// The result JSON for `hash`, or nullopt on miss. A present-but-corrupt
  /// file counts as a miss and is removed. Refreshes LRU recency and the
  /// hit/miss counters.
  std::optional<std::string> lookup(const std::string& hash);

  /// Persists `result_json` under `hash` (atomically, retried) and evicts
  /// least-recently-used entries beyond keep-K. Overwriting an existing
  /// hash refreshes its recency.
  void insert(const std::string& hash, const std::string& result_json);

  /// Like lookup() but touching neither recency nor the hit/miss
  /// counters - the service's GET result route reads through this so the
  /// cache statistics reflect scheduling decisions only.
  std::optional<std::string> read(const std::string& hash);

  /// True when `hash` is indexed (no recency refresh, no counter bump).
  bool contains(const std::string& hash) const;

  std::int64_t hits() const;
  std::int64_t misses() const;
  std::int64_t evictions() const;
  std::size_t size() const;

  /// Where `hash` lives (whether or not it exists yet).
  std::string path_for(const std::string& hash) const;

 private:
  bool read_entry(const std::string& hash, std::string* payload);
  void touch(const std::string& hash);  // callers hold mutex_
  void evict_excess();                  // callers hold mutex_

  Options options_;
  mutable std::mutex mutex_;
  // LRU order: front = stalest, back = most recently used.
  std::vector<std::string> order_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace psdns::svc
