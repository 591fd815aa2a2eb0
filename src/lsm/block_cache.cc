#include "lsm/block_cache.h"

namespace bloomrf {

std::shared_ptr<const CachedBlock> BlockCache::Lookup(uint64_t table_id,
                                                      uint64_t block_idx) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(Key{table_id, block_idx});
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->block;
}

void BlockCache::Insert(uint64_t table_id, uint64_t block_idx,
                        std::shared_ptr<const CachedBlock> block) {
  if (block == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Key key{table_id, block_idx};
  auto it = index_.find(key);
  if (it != index_.end()) {
    charge_bytes_ -= it->second->block->ChargeBytes();
    charge_bytes_ += block->ChargeBytes();
    it->second->block = std::move(block);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    charge_bytes_ += block->ChargeBytes();
    lru_.push_front(Item{key, std::move(block)});
    index_[key] = lru_.begin();
  }
  EvictOverBudgetLocked();
}

void BlockCache::EraseTable(uint64_t table_id, uint64_t num_blocks) {
  // The erased items move to `erased`, which is declared before the
  // lock and so frees their blocks after the lock is released.
  std::list<Item> erased;
  std::lock_guard<std::mutex> lock(mutex_);
  for (uint64_t idx = 0; idx < num_blocks && !index_.empty(); ++idx) {
    auto it = index_.find(Key{table_id, idx});
    if (it == index_.end()) continue;
    charge_bytes_ -= it->second->block->ChargeBytes();
    erased.splice(erased.end(), lru_, it->second);
    index_.erase(it);
  }
}

void BlockCache::EvictOverBudgetLocked() {
  // Never evict the block just touched: a cache too small for a single
  // block would otherwise thrash to empty and callers would re-read
  // every access anyway.
  while (charge_bytes_ > capacity_bytes_ && lru_.size() > 1) {
    const Item& victim = lru_.back();
    charge_bytes_ -= victim.block->ChargeBytes();
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

size_t BlockCache::charge_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return charge_bytes_;
}

uint64_t BlockCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

uint64_t BlockCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

uint64_t BlockCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

}  // namespace bloomrf
