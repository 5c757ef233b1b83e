// Slab allocation for the session fabric.
//
// SlabPool — fixed-slot chunked slabs with a freelist, used (through
// SlabAllocator + std::allocate_shared) for Session control blocks. The
// slot size locks to the first request; oversized or odd-sized requests
// fall back to the heap with an overflow counter, so the pool is always
// correct and only ever an optimization. Freed slots go back on the
// freelist; chunks are only released when the pool dies. Deallocation
// classifies a pointer by chunk containment, so slab and heap blocks need
// no headers.
//
// Thread-safe behind one mutex. allocate is O(1); deallocate walks the
// chunk list, which holds one chunk per 256 sessions at the fleet's peak
// (391 chunks for a 100k-session fleet, 3,907 for 1M) and never shrinks.
//
// Event-batch buffers are not pooled: a batch owns its vector, which is
// freed when the worker drops the batch.
//
// Observability: the pool publishes into a SlabGauges block
// (leaps_serve_slab_* once registered by ServerMetrics). It holds the
// gauges by shared_ptr because sessions — and therefore their slab
// slots — can outlive the server that created them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace leaps::serve {

/// Live readings for one pool, shared with ServerMetrics.
struct SlabGauges {
  std::atomic<std::int64_t> in_use{0};    // outstanding slots
  std::atomic<std::int64_t> free{0};      // recycled, ready to hand out
  std::atomic<std::int64_t> chunks{0};    // slabs created
  std::atomic<std::int64_t> overflow{0};  // requests served off-pool
};

class SlabPool {
 public:
  explicit SlabPool(std::size_t slots_per_chunk = 256,
                    std::shared_ptr<SlabGauges> gauges = nullptr)
      : slots_per_chunk_(slots_per_chunk == 0 ? 1 : slots_per_chunk),
        gauges_(std::move(gauges)) {}
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    for (const Chunk& c : chunks_) ::operator delete(c.base, align_);
  }

  void* allocate(std::size_t bytes, std::size_t align) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (slot_size_ == 0) {
      // First request fixes the slot geometry (one pool, one type).
      slot_size_ = bytes;
      align_ = std::align_val_t{align};
    }
    if (bytes != slot_size_ ||
        align > static_cast<std::size_t>(align_)) {
      ++overflow_;
      if (gauges_) gauges_->overflow.fetch_add(1, std::memory_order_relaxed);
      return ::operator new(bytes, std::align_val_t{align});
    }
    if (free_.empty()) grow();
    void* p = free_.back();
    free_.pop_back();
    ++in_use_;
    publish();
    return p;
  }

  void deallocate(void* p, std::size_t bytes, std::size_t align) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (owns(p)) {
      free_.push_back(p);
      --in_use_;
      publish();
      return;
    }
    ::operator delete(p, bytes, std::align_val_t{align});
  }

  std::size_t in_use() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return in_use_;
  }
  std::size_t free_slots() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }
  std::size_t chunk_count() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return chunks_.size();
  }
  std::size_t overflow() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return overflow_;
  }

 private:
  struct Chunk {
    void* base = nullptr;
    std::size_t bytes = 0;
  };

  void grow() {  // caller holds mu_
    const std::size_t stride =
        (slot_size_ + static_cast<std::size_t>(align_) - 1) /
        static_cast<std::size_t>(align_) * static_cast<std::size_t>(align_);
    Chunk chunk;
    chunk.bytes = stride * slots_per_chunk_;
    chunk.base = ::operator new(chunk.bytes, align_);
    auto* cursor = static_cast<char*>(chunk.base);
    for (std::size_t i = 0; i < slots_per_chunk_; ++i) {
      free_.push_back(cursor + i * stride);
    }
    chunks_.push_back(chunk);
  }

  bool owns(const void* p) const {  // caller holds mu_
    for (const Chunk& c : chunks_) {
      const auto* base = static_cast<const char*>(c.base);
      const auto* q = static_cast<const char*>(p);
      if (q >= base && q < base + c.bytes) return true;
    }
    return false;
  }

  void publish() {  // caller holds mu_
    if (!gauges_) return;
    gauges_->in_use.store(static_cast<std::int64_t>(in_use_),
                          std::memory_order_relaxed);
    gauges_->free.store(static_cast<std::int64_t>(free_.size()),
                        std::memory_order_relaxed);
    gauges_->chunks.store(static_cast<std::int64_t>(chunks_.size()),
                          std::memory_order_relaxed);
  }

  const std::size_t slots_per_chunk_;
  std::shared_ptr<SlabGauges> gauges_;
  mutable std::mutex mu_;
  std::size_t slot_size_ = 0;  // fixed by the first allocation
  std::align_val_t align_{alignof(std::max_align_t)};
  std::vector<Chunk> chunks_;
  std::vector<void*> free_;
  std::size_t in_use_ = 0;
  std::size_t overflow_ = 0;
};

/// Allocator adapter for std::allocate_shared: the shared_ptr control
/// block + object land in one pool slot. Copies share the pool (and keep
/// it alive past the owning manager, which matters because queued events
/// can hold sessions after their manager is gone).
template <typename T>
class SlabAllocator {
 public:
  using value_type = T;

  explicit SlabAllocator(std::shared_ptr<SlabPool> pool)
      : pool_(std::move(pool)) {}
  template <typename U>
  SlabAllocator(const SlabAllocator<U>& other) : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    pool_->deallocate(p, n * sizeof(T), alignof(T));
  }

  const std::shared_ptr<SlabPool>& pool() const { return pool_; }

  template <typename U>
  bool operator==(const SlabAllocator<U>& other) const {
    return pool_ == other.pool();
  }

 private:
  std::shared_ptr<SlabPool> pool_;
};

}  // namespace leaps::serve
