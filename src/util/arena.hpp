#pragma once
// Process-wide workspace arena: a size-bucketed pool of 64-byte aligned
// blocks with RAII checkout/return handles. Every steady-state scratch
// buffer in the hot path (the engine's RK stage, stage-RHS and product
// blocks, the backends' transform and round-trip group scratch, FFT
// scratch) draws from this pool, so a warmed-up solver step performs zero
// heap allocations and the pool's high-water mark is the measured
// counterpart of the paper's Table 1 memory-footprint model.
//
// Blocks are bucketed by rounding the request up to a size class, so a
// returned block satisfies any later request of a similar size regardless
// of which subsystem made it. Up to 1 MiB the classes are powers of two
// (floor 256 bytes); above it they are quarter steps between powers of two
// (2^k, 1.25, 1.5, 1.75 x 2^k), so a large field-sized block wastes at most
// a quarter of its size instead of nearly half. checkout() takes a mutex;
// Handle::ensure() rechecks its cached capacity first, so the per-call cost
// in a warmed-up loop is a branch, not a lock.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

namespace psdns::util {

class WorkspaceArena {
 public:
  struct Stats {
    std::size_t peak_bytes = 0;      // high-water mark of bytes owned
    std::size_t resident_bytes = 0;  // bytes currently owned (free + out)
    std::size_t outstanding_bytes = 0;  // bytes currently checked out
    std::int64_t hits = 0;    // checkouts served from the free lists
    std::int64_t misses = 0;  // checkouts that had to allocate
  };

  /// RAII checkout. Returns its block to the owning arena on destruction.
  /// Default-constructed handles are empty and bind to the global arena on
  /// the first ensure().
  template <class T>
  class Handle {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena blocks hold raw trivially-copyable storage");

   public:
    Handle() = default;
    Handle(Handle&& o) noexcept { swap(o); }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        reset();
        swap(o);
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { reset(); }

    T* data() const { return ptr_; }
    /// Usable element count (the full bucket, >= the requested count).
    std::size_t size() const { return count_; }
    bool empty() const { return ptr_ == nullptr; }
    T& operator[](std::size_t i) const { return ptr_[i]; }
    std::span<T> span() const { return {ptr_, count_}; }

    /// Guarantees capacity for `count` elements, checking a larger block
    /// out of the arena (and returning the old one) when needed. Contents
    /// are NOT preserved or zeroed across a regrow.
    void ensure(std::size_t count) {
      if (count_ >= count) return;
      WorkspaceArena* a = arena_ ? arena_ : &global();
      reset();
      *this = a->checkout<T>(count);
    }

    /// Returns the block to the arena and empties the handle.
    void reset() {
      if (ptr_ != nullptr) {
        arena_->release(ptr_, bucket_);
        ptr_ = nullptr;
        count_ = 0;
        bucket_ = 0;
      }
    }

   private:
    friend class WorkspaceArena;
    Handle(WorkspaceArena* arena, T* ptr, std::size_t count,
           std::size_t bucket)
        : arena_(arena), ptr_(ptr), count_(count), bucket_(bucket) {}

    void swap(Handle& o) noexcept {
      std::swap(arena_, o.arena_);
      std::swap(ptr_, o.ptr_);
      std::swap(count_, o.count_);
      std::swap(bucket_, o.bucket_);
    }

    WorkspaceArena* arena_ = nullptr;
    T* ptr_ = nullptr;
    std::size_t count_ = 0;
    std::size_t bucket_ = 0;  // bucket size in bytes
  };

  WorkspaceArena() = default;
  ~WorkspaceArena();
  WorkspaceArena(const WorkspaceArena&) = delete;
  WorkspaceArena& operator=(const WorkspaceArena&) = delete;

  /// Checks out a block holding at least `count` elements of T
  /// (uninitialized storage, 64-byte aligned).
  template <class T>
  Handle<T> checkout(std::size_t count) {
    std::size_t bucket = 0;
    void* p = acquire(count * sizeof(T), &bucket);
    return Handle<T>(this, static_cast<T*>(p), bucket / sizeof(T), bucket);
  }

  Stats stats() const;

  /// Frees every block on the free lists (checked-out blocks are
  /// unaffected). Shrinks resident_bytes; peak_bytes keeps its high-water
  /// mark.
  void trim();

  /// The process-wide arena all library scratch draws from.
  static WorkspaceArena& global();

  /// Bucket a request of `bytes` lands in: up to 1 MiB the next power of
  /// two, floored at 256 bytes; above, the next multiple of a quarter of
  /// the power of two at or below the request.
  static std::size_t bucket_bytes(std::size_t bytes);

 private:
  void* acquire(std::size_t bytes, std::size_t* bucket_out);
  void release(void* ptr, std::size_t bucket);

  mutable std::mutex mutex_;
  std::map<std::size_t, std::vector<void*>> free_;
  Stats stats_;
};

}  // namespace psdns::util
