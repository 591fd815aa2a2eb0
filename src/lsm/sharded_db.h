// Hash-sharded LSM engine: N independent Db shards behind one API.
//
// Keys are routed by a mixed hash of the key (Mix64 % num_shards), so
// each shard owns a disjoint key subset and runs its own memtable,
// seal/flush pipeline and SST set, all from the one DbOptions that
// ShardedDbOptions extends; all shards share one BlockCache, one
// subcompaction pool and one FilterPolicy. Batch reads (MultiGet/
// ScanRange) and WriteBatch fan out per shard on a small reusable
// ThreadPool of num_shards workers (reads are reassembled in input
// order), so the sub-batches of every shard run genuinely in
// parallel; Flush and CompactRange fan out over every shard the same
// way. Point Put/Delete/Get route directly with no pool hop.
//
// The routing is recorded in the store: the first open writes
// <dir>/SHARDS ("mix64 <count>") before any shard opens, and every
// later open routes with the recorded count, whatever num_shards asks
// for. Another count would send a key to a shard that never held it:
// Gets would miss, and Deletes would leave the old value to resurface.
//
// Because sharding is by hash, a key range spans all shards: ScanRange
// sends the whole batch to every shard and merges the per-shard rows
// (disjoint keys, so the merge is a sort) up to the limit.
//
// Every public method is safe from any number of client threads; the
// per-shard Db provides snapshot reads and concurrent writes.

#ifndef BLOOMRF_LSM_SHARDED_DB_H_
#define BLOOMRF_LSM_SHARDED_DB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace bloomrf {

/// Every DbOptions field configures each shard as it would one Db.
/// Shard i lives in dir/shard-i, and logs under wal_dir/shard-i when
/// wal_dir is set. A null block_cache becomes one cache of
/// block_cache_bytes shared by all shards, and a null compaction_pool
/// one subcompaction pool shared by all shards and sized for a single
/// shard's fan-out (shard compactions already run in parallel with
/// each other). Each shard keeps its own memtable of memtable_bytes,
/// and with sampling on its own WorkloadSampler, so shard-local
/// flushes and compactions tune from shard-local traffic.
struct ShardedDbOptions : DbOptions {
  /// Sizes a new store only; a store that has recorded its count opens
  /// with that count (see num_shards()).
  size_t num_shards = 8;
};

class ShardedDb {
 public:
  explicit ShardedDb(ShardedDbOptions options);

  size_t shard_of(uint64_t key) const {
    // Mix64 decorrelates the shard index from key order, so sequential
    // key ranges spread over all shards (and from the filters' own
    // hashes, which seed differently).
    return static_cast<size_t>(Mix64(key) % shards_.size());
  }

  bool Put(uint64_t key, std::string_view value) {
    return shards_[shard_of(key)]->Put(key, value);
  }
  bool Get(uint64_t key, std::string* value) {
    return shards_[shard_of(key)]->Get(key, value);
  }
  /// Deletes a key on its shard (tombstone semantics, see Db::Delete).
  bool Delete(uint64_t key) { return shards_[shard_of(key)]->Delete(key); }

  /// Batched write: ops are partitioned per shard, keeping their order
  /// within each shard, and each shard's sub-batch runs Db::WriteBatch
  /// (one WAL record + one memtable pass per shard) as one pool task,
  /// mirroring MultiGet's fan-out. Recovery applies each shard's
  /// sub-batch all-or-nothing — per shard, not across shards.
  bool WriteBatch(std::span<const WriteOp> ops);

  /// Batched point read, result[i] answering keys[i]. Keys are
  /// partitioned per shard, each shard's sub-batch runs Db::MultiGet
  /// (N Gets on one snapshot of that shard) as one pool task, and the
  /// answers are scattered back to input order.
  std::vector<std::optional<std::string>> MultiGet(
      std::span<const uint64_t> keys);

  /// Merged range scan over all shards (keys are hash-scattered, so
  /// every shard contributes to every range).
  std::vector<std::pair<uint64_t, std::string>> RangeScan(uint64_t lo,
                                                          uint64_t hi,
                                                          size_t limit = 1024);

  /// Batched range scan, result[i] answering [los[i], his[i]]. The
  /// whole batch goes to every shard in parallel (one RangeMultiProbe
  /// per SST per shard); per-range rows are merged across shards in key
  /// order up to `limit`. Spans of unequal length return an empty
  /// result.
  std::vector<std::vector<std::pair<uint64_t, std::string>>> ScanRange(
      std::span<const uint64_t> los, std::span<const uint64_t> his,
      size_t limit = 1024);

  /// Seals and drains every shard (in parallel). False if any flush
  /// failed.
  bool Flush();
  /// Drains already-queued background flushes on every shard.
  bool WaitForFlush();
  /// Waits until every shard's compaction triggers are satisfied (see
  /// Db::WaitForCompaction). False if any shard's compaction failed.
  bool WaitForCompaction();
  /// Manual compaction of [begin, end] on every shard in parallel
  /// (keys are hash-scattered, so the range touches all shards). See
  /// Db::CompactRange for the per-shard semantics.
  bool CompactRange(uint64_t begin, uint64_t end);
  /// CompactRange over the whole key space (see Db::CompactAll). Works
  /// with background compaction on or off. The adaptive filter loop's
  /// "re-tune the whole tree now" lever.
  bool CompactAll() { return CompactRange(0, UINT64_MAX); }

  /// The recorded shard count the store routes with.
  size_t num_shards() const { return shards_.size(); }
  Db& shard(size_t i) { return *shards_[i]; }
  const Db& shard(size_t i) const { return *shards_[i]; }

  /// Sum of all shards' counters and gauges.
  LsmStats TotalStats() const;
  /// Db::ResetStats on every shard.
  void ResetStats();
  size_t num_tables() const;
  uint64_t filter_memory_bits() const;
  const std::shared_ptr<BlockCache>& block_cache() const {
    return options_.block_cache;
  }

 private:
  /// Runs `fn(s)` for every shard s as one pool task each; true iff
  /// every call returned true.
  bool ForEachShard(const std::function<bool(size_t)>& fn);

  ShardedDbOptions options_;
  std::vector<std::unique_ptr<Db>> shards_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_SHARDED_DB_H_
