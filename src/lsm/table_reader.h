// SST reader of the mini-LSM store, with per-probe cost accounting
// matching the breakdown the paper reports in Fig. 12.G (filter probe
// time, deserialization time, I/O wait, residual CPU).
//
// Reads go through an optional shared BlockCache: a data block is read
// and parsed at most once while it stays resident, and MultiGet
// batch-probes the filter (MayContainBatch) then visits each surviving
// block once for all keys that map to it.
//
// All read methods are const and safe to call from many threads at
// once: file access uses positioned reads (pread) so no seek state is
// shared, loaded filters are immutable, the block cache is internally
// locked, and stats counters are atomics.

#ifndef BLOOMRF_LSM_TABLE_READER_H_
#define BLOOMRF_LSM_TABLE_READER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lsm/block.h"  // Lookup, ScanEntry
#include "lsm/block_cache.h"
#include "lsm/filter_policy.h"

namespace bloomrf {

/// Aggregated probe-cost counters (shared by DB across its tables).
/// Fields are relaxed atomics so concurrent readers can account into
/// one instance without tearing; copying takes a (non-atomic-as-a-
/// whole) field-by-field snapshot, which is exact whenever the copier
/// has quiesced the readers and merely approximate otherwise.
struct LsmStats {
  /// Levels with their own measured-FPR counters; deeper levels fold
  /// into the last bucket.
  static constexpr size_t kStatsLevels = 8;

  std::atomic<uint64_t> filter_probes{0};
  std::atomic<uint64_t> filter_negatives{0};
  // True false-positive accounting, per level: a probe the filter
  // allowed but the data blocks then rejected (false positive) vs a
  // probe the filter rejected (true negative — the structures have no
  // false negatives). measured FPR = fp / (fp + tn).
  std::atomic<uint64_t> filter_false_positives[kStatsLevels]{};
  std::atomic<uint64_t> filter_true_negatives[kStatsLevels]{};
  std::atomic<uint64_t> blocks_read{0};  // physical reads (cache misses incl.)
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> block_cache_hits{0};
  std::atomic<uint64_t> block_cache_misses{0};
  std::atomic<uint64_t> filter_probe_nanos{0};
  std::atomic<uint64_t> io_nanos{0};
  std::atomic<uint64_t> deser_nanos{0};
  // Write path: WAL records appended, bytes handed to write() (and
  // synced when wal_fsync is on), and physical group-commit writes —
  // appends/batches is the average group size under contention.
  std::atomic<uint64_t> wal_appends{0};
  std::atomic<uint64_t> wal_synced_bytes{0};
  std::atomic<uint64_t> group_commit_batches{0};
  // Maintenance path: background compactions completed/failed and the
  // bytes they moved; manifest edits appended and full snapshot
  // rewrites; tables quarantined (renamed aside as unreadable) at open
  // and data-block CRC mismatches caught at read time.
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compaction_failures{0};
  std::atomic<uint64_t> compaction_bytes_read{0};
  std::atomic<uint64_t> compaction_bytes_written{0};
  std::atomic<uint64_t> manifest_appends{0};
  std::atomic<uint64_t> manifest_rewrites{0};
  std::atomic<uint64_t> tables_quarantined{0};
  std::atomic<uint64_t> block_crc_errors{0};
  // Delete path: tombstones written into SSTs (flush + compaction
  // outputs, cumulative), tombstones physically dropped by compaction
  // at the bottom-most eligible level (cumulative), and tombstones
  // currently live across the published version's SSTs (a gauge,
  // recomputed whenever the version changes).
  std::atomic<uint64_t> tombstones_written{0};
  std::atomic<uint64_t> tombstones_dropped{0};
  std::atomic<uint64_t> tombstones_live{0};
  // Parallel-compaction observability, attributed to the job's OUTPUT
  // level (folded into the same buckets as the FPR counters): bytes in
  // and out of each level's merges and the wall time they took, plus
  // the number of range-partitioned subcompaction workers run and the
  // jobs executing right now (a gauge — background jobs and manual
  // CompactRange both count).
  std::atomic<uint64_t> compaction_bytes_read_level[kStatsLevels]{};
  std::atomic<uint64_t> compaction_bytes_written_level[kStatsLevels]{};
  std::atomic<uint64_t> compaction_micros_level[kStatsLevels]{};
  std::atomic<uint64_t> subcompactions_run{0};
  std::atomic<uint64_t> compactions_inflight{0};

  LsmStats() = default;
  LsmStats(const LsmStats& o) { *this = o; }
  LsmStats& operator=(const LsmStats& o) {
    if (this == &o) return *this;
    filter_probes = o.filter_probes.load(std::memory_order_relaxed);
    filter_negatives = o.filter_negatives.load(std::memory_order_relaxed);
    for (size_t l = 0; l < kStatsLevels; ++l) {
      filter_false_positives[l] =
          o.filter_false_positives[l].load(std::memory_order_relaxed);
      filter_true_negatives[l] =
          o.filter_true_negatives[l].load(std::memory_order_relaxed);
    }
    blocks_read = o.blocks_read.load(std::memory_order_relaxed);
    bytes_read = o.bytes_read.load(std::memory_order_relaxed);
    block_cache_hits = o.block_cache_hits.load(std::memory_order_relaxed);
    block_cache_misses = o.block_cache_misses.load(std::memory_order_relaxed);
    filter_probe_nanos = o.filter_probe_nanos.load(std::memory_order_relaxed);
    io_nanos = o.io_nanos.load(std::memory_order_relaxed);
    deser_nanos = o.deser_nanos.load(std::memory_order_relaxed);
    wal_appends = o.wal_appends.load(std::memory_order_relaxed);
    wal_synced_bytes = o.wal_synced_bytes.load(std::memory_order_relaxed);
    group_commit_batches =
        o.group_commit_batches.load(std::memory_order_relaxed);
    compactions = o.compactions.load(std::memory_order_relaxed);
    compaction_failures =
        o.compaction_failures.load(std::memory_order_relaxed);
    compaction_bytes_read =
        o.compaction_bytes_read.load(std::memory_order_relaxed);
    compaction_bytes_written =
        o.compaction_bytes_written.load(std::memory_order_relaxed);
    manifest_appends = o.manifest_appends.load(std::memory_order_relaxed);
    manifest_rewrites = o.manifest_rewrites.load(std::memory_order_relaxed);
    tables_quarantined = o.tables_quarantined.load(std::memory_order_relaxed);
    block_crc_errors = o.block_crc_errors.load(std::memory_order_relaxed);
    tombstones_written = o.tombstones_written.load(std::memory_order_relaxed);
    tombstones_dropped = o.tombstones_dropped.load(std::memory_order_relaxed);
    tombstones_live = o.tombstones_live.load(std::memory_order_relaxed);
    for (size_t l = 0; l < kStatsLevels; ++l) {
      compaction_bytes_read_level[l] =
          o.compaction_bytes_read_level[l].load(std::memory_order_relaxed);
      compaction_bytes_written_level[l] =
          o.compaction_bytes_written_level[l].load(std::memory_order_relaxed);
      compaction_micros_level[l] =
          o.compaction_micros_level[l].load(std::memory_order_relaxed);
    }
    subcompactions_run = o.subcompactions_run.load(std::memory_order_relaxed);
    compactions_inflight =
        o.compactions_inflight.load(std::memory_order_relaxed);
    SetLastError(o.last_error());
    return *this;
  }

  /// Adds another instance's counters into this one (shard roll-up).
  void Accumulate(const LsmStats& o) {
    filter_probes += o.filter_probes.load(std::memory_order_relaxed);
    filter_negatives += o.filter_negatives.load(std::memory_order_relaxed);
    for (size_t l = 0; l < kStatsLevels; ++l) {
      filter_false_positives[l] +=
          o.filter_false_positives[l].load(std::memory_order_relaxed);
      filter_true_negatives[l] +=
          o.filter_true_negatives[l].load(std::memory_order_relaxed);
    }
    blocks_read += o.blocks_read.load(std::memory_order_relaxed);
    bytes_read += o.bytes_read.load(std::memory_order_relaxed);
    block_cache_hits += o.block_cache_hits.load(std::memory_order_relaxed);
    block_cache_misses += o.block_cache_misses.load(std::memory_order_relaxed);
    filter_probe_nanos += o.filter_probe_nanos.load(std::memory_order_relaxed);
    io_nanos += o.io_nanos.load(std::memory_order_relaxed);
    deser_nanos += o.deser_nanos.load(std::memory_order_relaxed);
    wal_appends += o.wal_appends.load(std::memory_order_relaxed);
    wal_synced_bytes += o.wal_synced_bytes.load(std::memory_order_relaxed);
    group_commit_batches +=
        o.group_commit_batches.load(std::memory_order_relaxed);
    compactions += o.compactions.load(std::memory_order_relaxed);
    compaction_failures +=
        o.compaction_failures.load(std::memory_order_relaxed);
    compaction_bytes_read +=
        o.compaction_bytes_read.load(std::memory_order_relaxed);
    compaction_bytes_written +=
        o.compaction_bytes_written.load(std::memory_order_relaxed);
    manifest_appends += o.manifest_appends.load(std::memory_order_relaxed);
    manifest_rewrites += o.manifest_rewrites.load(std::memory_order_relaxed);
    tables_quarantined +=
        o.tables_quarantined.load(std::memory_order_relaxed);
    block_crc_errors += o.block_crc_errors.load(std::memory_order_relaxed);
    tombstones_written += o.tombstones_written.load(std::memory_order_relaxed);
    tombstones_dropped += o.tombstones_dropped.load(std::memory_order_relaxed);
    tombstones_live += o.tombstones_live.load(std::memory_order_relaxed);
    for (size_t l = 0; l < kStatsLevels; ++l) {
      compaction_bytes_read_level[l] +=
          o.compaction_bytes_read_level[l].load(std::memory_order_relaxed);
      compaction_bytes_written_level[l] +=
          o.compaction_bytes_written_level[l].load(std::memory_order_relaxed);
      compaction_micros_level[l] +=
          o.compaction_micros_level[l].load(std::memory_order_relaxed);
    }
    subcompactions_run += o.subcompactions_run.load(std::memory_order_relaxed);
    compactions_inflight +=
        o.compactions_inflight.load(std::memory_order_relaxed);
    if (last_error().empty()) SetLastError(o.last_error());
  }

  /// Most recent write-path failure (WAL open/write, flush I/O) — why
  /// a Put returned false. Empty when nothing has failed. Sticky until
  /// Reset().
  std::string last_error() const {
    std::lock_guard<std::mutex> lock(err_mu_);
    return last_error_;
  }
  void SetLastError(std::string msg) {
    std::lock_guard<std::mutex> lock(err_mu_);
    last_error_ = std::move(msg);
  }

  /// Folds a table's level into the per-level counter bucket.
  static size_t StatsLevel(uint32_t level) {
    return level < kStatsLevels ? level : kStatsLevels - 1;
  }

  uint64_t total_filter_false_positives() const {
    uint64_t total = 0;
    for (size_t l = 0; l < kStatsLevels; ++l) {
      total += filter_false_positives[l].load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t total_filter_true_negatives() const {
    uint64_t total = 0;
    for (size_t l = 0; l < kStatsLevels; ++l) {
      total += filter_true_negatives[l].load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Measured FPR over all probes with a definite outcome; 0 when none.
  double measured_fpr() const {
    uint64_t fp = total_filter_false_positives();
    uint64_t tn = total_filter_true_negatives();
    return fp + tn > 0
               ? static_cast<double>(fp) / static_cast<double>(fp + tn)
               : 0.0;
  }

  void Reset() { *this = LsmStats{}; }

 private:
  mutable std::mutex err_mu_;
  std::string last_error_;
};

class TableReader {
 public:
  /// Opens `path` and validates its metadata before serving a byte:
  /// the v3 footer magic (any other format is rejected), index/filter
  /// bounds against the file size, index CRC and shape (strictly
  /// increasing last keys, contiguous block extents), filter CRC.
  /// Deserializes the filter block via `policy` (may be null). Returns
  /// null on any corruption — the Db quarantines such files. `cache`,
  /// when non-null, serves repeated block reads across all read paths
  /// of this table.
  /// `file_number` is the SST's manifest identity (0 when unknown).
  static std::unique_ptr<TableReader> Open(
      const std::string& path, const FilterPolicy* policy, LsmStats* stats,
      std::shared_ptr<BlockCache> cache = nullptr, uint64_t file_number = 0);

  ~TableReader();

  /// Tri-state point lookup: kHit fills `value` (when non-null),
  /// kTombstone means this table holds a deletion of the key — the
  /// caller must stop the newest-first walk and report "absent", never
  /// fall through to an older table. A tombstone hit confirms the
  /// filter's answer (the key IS in the table), so it is not counted
  /// as a false positive.
  Lookup Find(uint64_t key, std::string* value, LsmStats* stats) const;

  /// Live-value lookup: Find == kHit. `value` may be null (existence
  /// check only). A tombstoned key reads as absent — single-table
  /// callers only; engine walks use Find so deletions shadow.
  bool Get(uint64_t key, std::string* value, LsmStats* stats) const {
    return Find(key, value, stats) == Lookup::kHit;
  }

  /// Batched point lookup. For each i with states[i] == kMiss, probes
  /// keys[i]; on a hit sets states[i] = kHit and (if `values` is
  /// non-null) values[i]; on a tombstone sets states[i] = kTombstone
  /// (resolved: older tables must not override it). Keys already
  /// resolved are skipped, so a DB can chain the same arrays through
  /// tables newest-first. The filter is consulted once per batch via
  /// MayContainBatch, and each surviving data block is fetched and
  /// parsed once for all keys mapping to it. Returns the number of
  /// newly resolved keys (hits + tombstones).
  size_t MultiGet(std::span<const uint64_t> keys, Lookup* states,
                  std::string* values, LsmStats* stats) const;

  /// Batched range filter probe: may_match[i] holds this table's
  /// filter answer for [los[i], his[i]] (true when the table has no
  /// filter). One planned MayContainRangeBatch per call instead of N
  /// scalar descents — the filter-side half of Db::ScanRange.
  void RangeMultiProbe(std::span<const uint64_t> los,
                       std::span<const uint64_t> his, bool* may_match,
                       LsmStats* stats) const;

  /// Appends up to `limit` entries with keys in [lo, hi] to `out`,
  /// tombstones included, without consulting the filter (callers
  /// already probed via RangeMultiProbe). Reads through the cached
  /// cursor that scans use, and stops at an unreadable block. A null
  /// `out` ignores `limit` and touches every block of the range (cache
  /// warming).
  void ScanBlocks(uint64_t lo, uint64_t hi, size_t limit,
                  std::vector<ScanEntry>* out, LsmStats* stats) const;

  uint64_t min_key() const { return min_key_; }
  uint64_t max_key() const { return max_key_; }
  /// Tombstone entries in this table, from the footer.
  uint64_t num_tombstones() const { return num_tombstones_; }
  uint64_t filter_memory_bits() const {
    return filter_ ? filter_->MemoryBits() : 0;
  }
  const PointRangeFilter* filter() const { return filter_.get(); }
  uint64_t file_number() const { return file_number_; }
  uint64_t file_size() const { return file_size_; }
  const std::string& path() const { return path_; }

  /// LSM level of this table, for per-level stats attribution. Set
  /// once by the Db before the reader is shared (no synchronization).
  void set_level(uint32_t level) { level_ = level; }
  uint32_t level() const { return level_; }
  /// Registry name of the filter backend this table carries (parsed
  /// from the framed filter block); "" when the table has no filter.
  const std::string& filter_backend() const { return filter_backend_; }

  /// Lifetime probe outcomes of this table's filter, keyed for
  /// per-backend feedback aggregation (Db::CollectFilterFeedback).
  struct FilterOutcomes {
    uint64_t point_allowed = 0;
    uint64_t point_false = 0;
    uint64_t point_negatives = 0;
    uint64_t range_allowed = 0;
    uint64_t range_false = 0;
    uint64_t range_negatives = 0;
  };
  FilterOutcomes filter_outcomes() const {
    FilterOutcomes out;
    out.point_allowed = pt_allowed_.load(std::memory_order_relaxed);
    out.point_false = pt_false_.load(std::memory_order_relaxed);
    out.point_negatives = pt_neg_.load(std::memory_order_relaxed);
    out.range_allowed = rg_allowed_.load(std::memory_order_relaxed);
    out.range_false = rg_false_.load(std::memory_order_relaxed);
    out.range_negatives = rg_neg_.load(std::memory_order_relaxed);
    return out;
  }

  /// Closes the loop for a range probe the filter allowed: callers of
  /// RangeMultiProbe report whether the range held any entry; none
  /// means the filter answer was a false positive. No-op when the
  /// table has no filter.
  void AccountRangeOutcome(bool any_rows, LsmStats* stats) const;

  /// How a cursor fetches data blocks.
  enum class ReadMode {
    kCached,       // through the shared block cache (scans)
    kBypassCache,  // direct reads, so a compaction sweep never evicts
                   // hot read-path blocks
  };

  /// Sorted cursor over the table's entries, tombstones included — a
  /// child of MergingIterator. `ok()` turns false if a block fails to
  /// read or checksum; the cursor then ends there.
  class Iterator {
   public:
    /// Positions the cursor on the first entry with key >= `start_key`
    /// (past the end when the table has none), reading only the blocks
    /// from there on.
    Iterator(const TableReader& table, ReadMode mode, LsmStats* stats,
             uint64_t start_key);
    bool Valid() const {
      return block_ != nullptr && pos_ < block_->entries.size();
    }
    uint64_t key() const { return block_->entries[pos_].key; }
    std::string_view value() const { return block_->entries[pos_].value; }
    bool tombstone() const { return block_->entries[pos_].tombstone; }
    void Next();
    bool ok() const { return ok_; }

   private:
    void LoadBlock(size_t block_idx);

    const TableReader& table_;
    const ReadMode mode_;
    LsmStats* const stats_;
    std::shared_ptr<const CachedBlock> block_;
    size_t block_idx_ = 0;
    size_t pos_ = 0;
    bool ok_ = true;
  };

 private:
  TableReader() = default;

  struct IndexEntry {
    uint64_t last_key;
    uint64_t offset;
    uint64_t size;
  };

  /// Positioned read of [offset, offset+size) into `out`; thread-safe
  /// (pread).
  bool ReadFileAt(uint64_t offset, uint64_t size, std::string* out) const;
  bool ReadBlockAt(size_t index_pos, std::string* buffer,
                   LsmStats* stats) const;
  /// Reads and parses the block at `index_pos`, bypassing the cache.
  /// Null on I/O error or corruption.
  std::shared_ptr<const CachedBlock> ReadBlock(size_t index_pos,
                                               LsmStats* stats) const;
  /// Cache-aware fetch: returns the parsed block at `index_pos` from
  /// the shared cache, reading and parsing (then caching) on a miss.
  /// Null on I/O error or corruption.
  std::shared_ptr<const CachedBlock> GetBlock(size_t index_pos,
                                              LsmStats* stats) const;
  /// Index position of the first block whose last_key >= key, or -1.
  int64_t FindBlock(uint64_t key) const;

  std::FILE* file_ = nullptr;
  std::vector<IndexEntry> index_;
  std::unique_ptr<PointRangeFilter> filter_;
  std::shared_ptr<BlockCache> cache_;
  uint64_t table_id_ = 0;  // process-unique cache-key namespace
  uint64_t min_key_ = 0;
  uint64_t max_key_ = 0;
  uint64_t file_number_ = 0;  // manifest identity (0 = unknown)
  uint64_t file_size_ = 0;
  uint64_t num_tombstones_ = 0;  // footer count
  uint32_t level_ = 0;          // LSM level (set before sharing)
  std::string filter_backend_;  // registry name from the framed block
  // Per-table probe outcomes (relaxed; read via filter_outcomes()).
  mutable std::atomic<uint64_t> pt_allowed_{0};
  mutable std::atomic<uint64_t> pt_false_{0};
  mutable std::atomic<uint64_t> pt_neg_{0};
  mutable std::atomic<uint64_t> rg_allowed_{0};
  mutable std::atomic<uint64_t> rg_false_{0};
  mutable std::atomic<uint64_t> rg_neg_{0};
  std::string path_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_TABLE_READER_H_
