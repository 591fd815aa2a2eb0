// Shared LRU cache of SST data blocks.
//
// The mini-LSM read path (Get/MultiGet/ScanRange) would otherwise read
// and parse a data block from disk on every access. The cache keeps
// recently used blocks keyed by (table id, block index), so repeated
// reads of a hot block cost a hash lookup instead of a pread, checksum
// and parse. A cached block is its raw bytes plus one 32-bit offset
// per entry, searched in place as LevelDB's Block is; a 4 KiB block of
// 50 entries is charged 4 KiB + 200 bytes + 56 bytes. One cache
// instance is shared by all tables of a Db (DbOptions::block_cache can
// share it across Db instances too, mirroring RocksDB's shared block
// cache). A table's blocks leave the cache with the table:
// ~TableReader erases them (EraseTable), so a compacted-away table or
// a closed Db's tables hold no cache memory.
//
// Thread-safe: all operations take one internal mutex; cached blocks
// are immutable and handed out as shared_ptr, so readers keep a block
// alive even after eviction or erasure.

#ifndef BLOOMRF_LSM_BLOCK_CACHE_H_
#define BLOOMRF_LSM_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "lsm/block.h"  // CachedBlock

namespace bloomrf {

class BlockCache {
 public:
  /// `capacity_bytes` bounds the total charge of resident blocks;
  /// least-recently-used blocks are evicted past it.
  explicit BlockCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns the cached block or null; a hit refreshes LRU order.
  std::shared_ptr<const CachedBlock> Lookup(uint64_t table_id,
                                            uint64_t block_idx);

  /// Inserts (or replaces) a block and evicts LRU entries over budget.
  void Insert(uint64_t table_id, uint64_t block_idx,
              std::shared_ptr<const CachedBlock> block);

  /// Drops blocks 0 .. num_blocks-1 of `table_id` (a table being
  /// destroyed). Not an eviction: hit, miss and eviction counts stay.
  /// Callers still holding a block keep it.
  void EraseTable(uint64_t table_id, uint64_t num_blocks);

  size_t charge_bytes() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  struct Key {
    uint64_t table_id;
    uint64_t block_idx;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Splittable mix of the two ids; table ids are small and dense.
      uint64_t h = k.table_id * 0x9e3779b97f4a7c15ULL + k.block_idx;
      h ^= h >> 32;
      return static_cast<size_t>(h * 0xff51afd7ed558ccdULL);
    }
  };
  struct Item {
    Key key;
    std::shared_ptr<const CachedBlock> block;
  };

  void EvictOverBudgetLocked();

  const size_t capacity_bytes_;
  mutable std::mutex mutex_;
  std::list<Item> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Item>::iterator, KeyHash> index_;
  size_t charge_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_BLOCK_CACHE_H_
