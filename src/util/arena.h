// Bump-pointer arena backing the memtable's skiplist nodes and values.
//
// Allocation is concurrent and mostly wait-free: the fast path is one
// fetch_add on the current chunk's offset; only installing a fresh
// chunk (every kChunkBytes of allocation) takes a mutex. Memory is
// owned in bulk and released all at once when the arena dies — exactly
// the lifetime of a memtable, which is sealed, flushed to an SST and
// dropped as a unit, so per-entry free() bookkeeping would be pure
// overhead.
//
// Pointers returned by AllocateAligned are stable for the arena's
// lifetime (chunks are never moved or reused), which is what lets
// skiplist nodes link to each other and publish value pointers with
// plain atomic stores.

#ifndef BLOOMRF_UTIL_ARENA_H_
#define BLOOMRF_UTIL_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace bloomrf {

class Arena {
 public:
  static constexpr size_t kChunkBytes = 256 << 10;

  Arena() { chunks_.reserve(8); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// 8-byte-aligned allocation; never returns null (throws bad_alloc
  /// like operator new). Safe from any number of threads.
  char* AllocateAligned(size_t bytes) {
    bytes = (bytes + 7) & ~size_t{7};
    for (;;) {
      Chunk* chunk = head_.load(std::memory_order_acquire);
      if (chunk != nullptr) {
        size_t pos = chunk->used.fetch_add(bytes, std::memory_order_relaxed);
        if (pos + bytes <= chunk->capacity) return chunk->data + pos;
        // Lost the tail of this chunk (the fetch_add overshot); fall
        // through and install a successor. The overshoot only wastes
        // the chunk's final partial slot.
      }
      std::lock_guard<std::mutex> lock(grow_mu_);
      if (head_.load(std::memory_order_relaxed) == chunk) {
        size_t capacity = bytes > kChunkBytes ? bytes : kChunkBytes;
        auto fresh = std::make_unique<Chunk>(capacity);
        head_.store(fresh.get(), std::memory_order_release);
        chunks_.push_back(std::move(fresh));
      }
    }
  }

 private:
  struct Chunk {
    explicit Chunk(size_t cap) : data(new char[cap]), capacity(cap) {}
    ~Chunk() { delete[] data; }
    char* const data;
    const size_t capacity;
    std::atomic<size_t> used{0};
  };

  std::atomic<Chunk*> head_{nullptr};
  std::mutex grow_mu_;                 // guards chunks_ growth
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_UTIL_ARENA_H_
