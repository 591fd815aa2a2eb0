// In-memory write buffer of the mini-LSM store. The paper's Problem 2
// discussion notes that KV-stores absorb new data in a main-memory
// delta that is searched "otherwise" (HashSkipLists / HashLinkLists in
// RocksDB); this is that delta as an arena-backed concurrent skiplist:
// Put from any number of threads is lock-free (CAS-spliced inserts,
// one bump-pointer arena allocation per entry), Get and Iterator never
// take a lock, and ApproximateBytes is a relaxed atomic so the flush
// threshold check costs one load.
//
// Overwrite semantics: a key's value pointer is swapped atomically;
// concurrent writers of the same key linearize on that swap (last one
// wins) and readers see a complete old or new value, never a mix.
// Byte accounting charges 8 + value bytes per live key and the size
// delta on overwrite — exact when quiesced, approximate (but never
// drifting) under concurrent overwrites of one key.
//
// Deletes are tombstones: Delete(key) publishes a value-state flag on
// the same atomic value pointer (the low bit, free because the arena
// returns 8-byte-aligned buffers) instead of a value. A tombstone is a
// first-class entry — it shadows older values in every lookup and
// scan, rides the flush into the SST, and is only physically dropped
// by compaction at the bottom-most level that can hold the key.

#ifndef BLOOMRF_LSM_MEMTABLE_H_
#define BLOOMRF_LSM_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lsm/block.h"  // Lookup, ScanEntry
#include "lsm/skiplist.h"
#include "util/arena.h"
#include "util/coding.h"

namespace bloomrf {

class MemTable {
 public:
  MemTable() : rep_(std::make_unique<Rep>()) {}

  /// Inserts or overwrites. Lock-free; safe from any number of
  /// threads, concurrently with all readers.
  void Put(uint64_t key, std::string_view value) {
    Rep* rep = rep_.get();
    // Values are stored length-prefixed in the arena and published by
    // pointer; the buffer is immutable once linked.
    char* buf = rep->arena.AllocateAligned(4 + value.size());
    EncodeFixed32(buf, static_cast<uint32_t>(value.size()));
    std::memcpy(buf + 4, value.data(), value.size());
    const char* old = rep->list.Insert(key, buf);
    if (old == nullptr) {
      rep->bytes.fetch_add(8 + value.size(), std::memory_order_relaxed);
      rep->count.fetch_add(1, std::memory_order_relaxed);
    } else {
      int64_t delta = static_cast<int64_t>(value.size()) -
                      static_cast<int64_t>(ValueLen(old));
      rep->bytes.fetch_add(static_cast<uint64_t>(delta),
                           std::memory_order_relaxed);
      if (IsTombstone(old)) {
        rep->tombstones.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }

  /// Writes a tombstone for `key`: the atomic value pointer is swapped
  /// to the tagged sentinel, so readers racing the delete see either
  /// the complete old value or the deletion, never a mix. Same
  /// concurrency guarantees as Put.
  void Delete(uint64_t key) {
    Rep* rep = rep_.get();
    const char* old = rep->list.Insert(key, TombstonePointer());
    if (old == nullptr) {
      rep->bytes.fetch_add(8, std::memory_order_relaxed);
      rep->count.fetch_add(1, std::memory_order_relaxed);
      rep->tombstones.fetch_add(1, std::memory_order_relaxed);
    } else if (!IsTombstone(old)) {
      rep->bytes.fetch_sub(ValueLen(old), std::memory_order_relaxed);
      rep->tombstones.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Tri-state lookup: a tombstone is a definite "deleted here" that
  /// callers must not fall through to older sources.
  Lookup Find(uint64_t key, std::string* value) const {
    const char* v = rep_->list.Get(key);
    if (v == nullptr) return Lookup::kMiss;
    if (IsTombstone(v)) return Lookup::kTombstone;
    if (value != nullptr) value->assign(v + 4, DecodeFixed32(v));
    return Lookup::kHit;
  }

  /// Live-value lookup; a deleted key reads as absent. (Engine-internal
  /// walks use Find so tombstones can shadow older sources.)
  bool Get(uint64_t key, std::string* value) const {
    return Find(key, value) == Lookup::kHit;
  }

  /// Sorted cursor over the skiplist, tombstones included, so a merge
  /// can let deletions shadow older sources. Lock-free and safe beside
  /// concurrent writers (it sees some linearization of them). Each
  /// position loads the entry's value pointer once, so value() and
  /// tombstone() always describe the same version of the entry. The
  /// memtable must outlive the cursor.
  class Iterator {
   public:
    /// Positions on the first entry with key >= `start_key`.
    Iterator(const MemTable& mem, uint64_t start_key)
        : it_(&mem.rep_->list) {
      it_.Seek(start_key);
      Load();
    }
    bool Valid() const { return it_.Valid(); }
    uint64_t key() const { return it_.key(); }
    bool tombstone() const { return IsTombstone(v_); }
    /// Empty for a tombstone. Points into the arena.
    std::string_view value() const {
      if (tombstone()) return {};
      return {v_ + 4, DecodeFixed32(v_)};
    }
    void Next() {
      it_.Next();
      Load();
    }

   private:
    void Load() { v_ = it_.Valid() ? it_.value() : nullptr; }

    SkipList::Iterator it_;
    const char* v_ = nullptr;
  };

  uint64_t ApproximateBytes() const {
    return rep_->bytes.load(std::memory_order_relaxed);
  }
  size_t size() const { return rep_->count.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }
  /// Tombstone entries currently live in this memtable (exact when
  /// quiesced, like the byte accounting).
  size_t tombstone_count() const {
    return rep_->tombstones.load(std::memory_order_relaxed);
  }
  /// Arena bytes actually reserved (>= ApproximateBytes; for memory
  /// accounting, not the flush threshold).
  size_t MemoryUsage() const { return rep_->arena.MemoryUsage(); }

  /// Copies all entries (tombstones included) in sorted order.
  std::vector<ScanEntry> Snapshot() const {
    std::vector<ScanEntry> out;
    out.reserve(size());
    for (Iterator it(*this, 0); it.Valid(); it.Next()) {
      out.push_back({it.key(), std::string(it.value()), it.tombstone()});
    }
    return out;
  }

  /// Drops every entry and releases the arena. NOT safe concurrently
  /// with any other call — callers must have exclusive access (the
  /// LSM never clears a shared memtable; it swaps in a fresh one).
  void Clear() { rep_ = std::make_unique<Rep>(); }

 private:
  struct Rep {
    Arena arena;
    SkipList list{&arena};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> tombstones{0};
  };

  /// The value-state flag lives in bit 0 of the published pointer:
  /// arena buffers are 8-byte aligned, so the bit is always free, and
  /// readers learn "value vs tombstone" from the same atomic load that
  /// hands them the pointer. All tombstones share one static sentinel
  /// (its zero length bytes make the accounting arithmetic uniform).
  static const char* TombstonePointer() {
    alignas(8) static const char kSentinel[4] = {0, 0, 0, 0};
    return reinterpret_cast<const char*>(
        reinterpret_cast<uintptr_t>(kSentinel) | 1);
  }
  static bool IsTombstone(const char* v) {
    return (reinterpret_cast<uintptr_t>(v) & 1) != 0;
  }
  /// Stored value length; 0 for tombstones (the sentinel's bytes).
  static uint32_t ValueLen(const char* v) {
    return DecodeFixed32(reinterpret_cast<const char*>(
        reinterpret_cast<uintptr_t>(v) & ~uintptr_t{1}));
  }

  static void EncodeFixed32(char* dst, uint32_t v) {
    std::memcpy(dst, &v, 4);
  }

  std::unique_ptr<Rep> rep_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_MEMTABLE_H_
