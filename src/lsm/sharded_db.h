// Hash-sharded LSM engine: N independent Db shards behind one API.
//
// Keys are routed by a mixed hash of the key (Mix64 % num_shards), so
// each shard owns a disjoint key subset and runs its own memtable,
// seal/flush pipeline and SST set; all shards share one BlockCache and
// one FilterPolicy. Batch reads (MultiGet/ScanRange) and WriteBatch
// fan out per shard on a small reusable ThreadPool of num_shards
// workers (reads are reassembled in input order), so the sub-batches
// of every shard run genuinely in parallel; Flush and
// CompactRange fan out over every shard the same way. Point
// Put/Delete/Get route directly with no pool hop.
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

struct ShardedDbOptions {
  std::string dir;  // shard i lives in dir/shard-i
  /// Shared by every shard. Null disables filter blocks.
  std::shared_ptr<FilterPolicy> filter_policy;
  size_t num_shards = 8;
  size_t block_size = 4096;
  /// Per-shard memtable budget (the engine holds up to num_shards of
  /// these in memory, plus sealed ones awaiting flush).
  uint64_t memtable_bytes = 8ull << 20;
  /// One cache shared across all shards; created with
  /// `block_cache_bytes` when null (0 disables caching).
  std::shared_ptr<BlockCache> block_cache;
  size_t block_cache_bytes = 32 << 20;
  bool background_flush = true;
  /// Per-shard write-ahead log (see DbOptions::wal): every shard logs
  /// its own writes and replays them on reopen. wal_dir, when set,
  /// holds per-shard subdirectories wal_dir/shard-i.
  bool wal = true;
  bool wal_fsync = false;
  std::string wal_dir;
  /// Filesystem seam shared by every shard (see DbOptions::env). Null
  /// = the process-wide POSIX Env.
  Env* env = nullptr;
  /// Per-shard background leveled compaction (see DbOptions). Each
  /// shard runs its own compaction thread over its own level tree.
  bool compaction = false;
  size_t l0_compaction_trigger = 4;
  uint64_t level_base_bytes = 8ull << 20;
  size_t level_size_multiplier = 8;
  size_t max_levels = 6;
  /// Per-shard compaction scheduler width (see
  /// DbOptions::compaction_threads). Each shard gets its own worker
  /// set; shards already parallelize across each other, so > 1 mainly
  /// helps skewed shards with deep trees.
  size_t compaction_threads = 1;
  /// Range-partitioned subcompactions per job (see
  /// DbOptions::max_subcompactions). All shards share ONE
  /// subcompaction pool sized for a single shard's fan-out, so
  /// concurrent shard compactions queue their ranges rather than
  /// oversubscribing the host.
  size_t max_subcompactions = 0;
  uint64_t subcompaction_min_bytes = 8ull << 20;
  /// Per-shard workload sampling for the adaptive filter loop (see
  /// DbOptions::sample_queries): each shard Db observes its own query
  /// stream with its own sampler, so shard-local flushes and
  /// compactions tune from shard-local traffic.
  bool sample_queries = false;
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
