#include "util/arena.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "util/aligned.hpp"
#include "util/check.hpp"

namespace psdns::util {

std::size_t WorkspaceArena::bucket_bytes(std::size_t bytes) {
  constexpr std::size_t kQuarterClassesAbove = std::size_t{1} << 20;
  if (bytes <= kQuarterClassesAbove) {
    return std::bit_ceil(std::max<std::size_t>(bytes, 256));
  }
  const std::size_t quarter = std::bit_floor(bytes) / 4;
  return (bytes + quarter - 1) / quarter * quarter;
}

void* WorkspaceArena::acquire(std::size_t bytes, std::size_t* bucket_out) {
  const std::size_t bucket = bucket_bytes(bytes);
  *bucket_out = bucket;
  std::lock_guard lock(mutex_);
  auto it = free_.find(bucket);
  if (it != free_.end() && !it->second.empty()) {
    void* p = it->second.back();
    it->second.pop_back();
    ++stats_.hits;
    stats_.outstanding_bytes += bucket;
    return p;
  }
  // Bucket sizes are powers of two >= 256 or multiples of 256 KiB, so the
  // aligned_alloc size requirement (a multiple of the alignment) holds by
  // construction.
  void* p = std::aligned_alloc(kAlignment, bucket);
  PSDNS_REQUIRE(p != nullptr, "workspace arena allocation failed");
  ++stats_.misses;
  stats_.resident_bytes += bucket;
  stats_.outstanding_bytes += bucket;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.resident_bytes);
  return p;
}

void WorkspaceArena::release(void* ptr, std::size_t bucket) {
  std::lock_guard lock(mutex_);
  free_[bucket].push_back(ptr);
  stats_.outstanding_bytes -= bucket;
}

WorkspaceArena::Stats WorkspaceArena::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void WorkspaceArena::trim() {
  std::lock_guard lock(mutex_);
  for (auto& [bucket, blocks] : free_) {
    for (void* p : blocks) {
      std::free(p);
      stats_.resident_bytes -= bucket;
    }
    blocks.clear();
  }
}

WorkspaceArena::~WorkspaceArena() { trim(); }

WorkspaceArena& WorkspaceArena::global() {
  // Function-local static: constructed on first use and destroyed after
  // the main thread's thread_local handles (FFT scratch) have returned
  // their blocks ([basic.start.term]).
  static WorkspaceArena arena;
  return arena;
}

}  // namespace psdns::util
