// SST reader of the mini-LSM store. Each table counts its own filter
// outcomes (allowed, false positive, rejected), the one source of
// measured FPR; filter_outcomes() reports them as the planner's
// BackendObservation, which Db::CollectFilterFeedback sums per
// backend. LsmStats counts block reads across tables as they happen,
// and filter probes across tables once per call: a point probe counts
// into the caller's ProbeTally, which the caller adds to LsmStats when
// its lookup ends (Db::Get, Db::MultiGet), and RangeMultiProbe adds
// once per batch. No read path takes a timestamp: Fig. 12.G's
// probe/deserialization split is timed by bench_fig12g_breakdown.
//
// Reads go through an optional shared BlockCache: a data block is read
// and parsed at most once while it stays resident. Every point probe
// goes through Find, and with it one false-positive rule; MultiGet is
// a loop of Find, kept for perfbench's replay.
//
// All read methods are const and safe to call from many threads at
// once: file access uses positioned reads (pread) so no seek state is
// shared, loaded filters are immutable, the block cache is internally
// locked, and stats counters are relaxed atomics (a ProbeTally is
// owned by one call and never shared).

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
#include <tuple>
#include <vector>

#include "lsm/block.h"  // Lookup, ScanEntry
#include "lsm/block_cache.h"
#include "lsm/filter_policy.h"

namespace bloomrf {

/// Engine counters, shared by a Db and its tables. Fields are relaxed
/// atomics so concurrent readers can account into one instance without
/// tearing; copying takes a (non-atomic-as-a-whole) field-by-field
/// snapshot, which is exact whenever the copier has quiesced the
/// readers and merely approximate otherwise. A new field is its
/// declaration plus one entry in kCounters or kGauges below.
struct LsmStats {
  /// Levels with their own compaction buckets; deeper levels fold into
  /// the last bucket.
  static constexpr size_t kStatsLevels = 8;

  // Filter probes over all tables, point and range, and how many the
  // filter rejected. Point probes are added once per Get/MultiGet call
  // (ProbeTally), range probes once per table per batch
  // (RangeMultiProbe). Measured FPR is per table and per backend
  // instead (TableReader::filter_outcomes, Db::CollectFilterFeedback).
  std::atomic<uint64_t> filter_probes{0};
  std::atomic<uint64_t> filter_negatives{0};
  std::atomic<uint64_t> blocks_read{0};  // physical reads (cache misses incl.)
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> block_cache_hits{0};
  std::atomic<uint64_t> block_cache_misses{0};
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
  // level: bytes in and out of each level's merges and the wall time
  // they took, plus the number of range-partitioned subcompaction
  // workers run and the jobs executing right now (a gauge — background
  // jobs and manual CompactRange both count).
  std::atomic<uint64_t> compaction_bytes_read_level[kStatsLevels]{};
  std::atomic<uint64_t> compaction_bytes_written_level[kStatsLevels]{};
  std::atomic<uint64_t> compaction_micros_level[kStatsLevels]{};
  std::atomic<uint64_t> subcompactions_run{0};
  std::atomic<uint64_t> compactions_inflight{0};

  LsmStats() = default;
  LsmStats(const LsmStats& o) { *this = o; }
  LsmStats& operator=(const LsmStats& o) {
    if (this == &o) return *this;
    auto copy = [](Counter& mine, const Counter& theirs) {
      mine.store(theirs.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    };
    ForEach(kFields, o, copy);
    SetLastError(o.last_error());
    return *this;
  }

  /// Adds another instance's counters and gauges into this one (shard
  /// roll-up).
  void Accumulate(const LsmStats& o) {
    auto add = [](Counter& mine, const Counter& theirs) {
      mine.fetch_add(theirs.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    };
    ForEach(kFields, o, add);
    if (last_error().empty()) SetLastError(o.last_error());
  }

  /// Zeroes the counters and last_error. The gauges keep describing
  /// the live store: a running compaction's closing decrement must
  /// find the increment it made.
  void Reset() {
    ForEach(kCounters, *this, [](Counter& mine, const Counter&) {
      mine.store(0, std::memory_order_relaxed);
    });
    SetLastError("");
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

  /// Folds a level into its per-level compaction bucket.
  static size_t StatsLevel(uint32_t level) {
    return level < kStatsLevels ? level : kStatsLevels - 1;
  }

 private:
  using Counter = std::atomic<uint64_t>;

  // Every field once: counters count events since the last Reset,
  // gauges describe the store as it is now.
  static constexpr auto kCounters = std::make_tuple(
      &LsmStats::filter_probes, &LsmStats::filter_negatives,
      &LsmStats::blocks_read, &LsmStats::bytes_read,
      &LsmStats::block_cache_hits, &LsmStats::block_cache_misses,
      &LsmStats::wal_appends, &LsmStats::wal_synced_bytes,
      &LsmStats::group_commit_batches, &LsmStats::compactions,
      &LsmStats::compaction_failures, &LsmStats::compaction_bytes_read,
      &LsmStats::compaction_bytes_written, &LsmStats::manifest_appends,
      &LsmStats::manifest_rewrites, &LsmStats::tables_quarantined,
      &LsmStats::block_crc_errors, &LsmStats::tombstones_written,
      &LsmStats::tombstones_dropped, &LsmStats::compaction_bytes_read_level,
      &LsmStats::compaction_bytes_written_level,
      &LsmStats::compaction_micros_level, &LsmStats::subcompactions_run);
  static constexpr auto kGauges = std::make_tuple(
      &LsmStats::tombstones_live, &LsmStats::compactions_inflight);
  static constexpr auto kFields = std::tuple_cat(kCounters, kGauges);

  /// Calls f(mine, theirs) for each field in `fields` (each bucket of
  /// a per-level field), pairing this instance's with o's.
  template <typename Fields, typename F>
  void ForEach(const Fields& fields, const LsmStats& o, F f) {
    std::apply([&](auto... field) { (Pair(this->*field, o.*field, f), ...); },
               fields);
  }
  template <typename F>
  static void Pair(Counter& mine, const Counter& theirs, F& f) {
    f(mine, theirs);
  }
  template <typename F>
  static void Pair(Counter (&mine)[kStatsLevels],
                   const Counter (&theirs)[kStatsLevels], F& f) {
    for (size_t l = 0; l < kStatsLevels; ++l) f(mine[l], theirs[l]);
  }

  mutable std::mutex err_mu_;
  std::string last_error_;
};

/// Point filter probes of one read call and how many the filter
/// rejected. TableReader::Find counts into it; the call adds it to
/// LsmStats once when it ends, so a lookup that probes many tables
/// makes two shared-counter updates instead of two per probe.
struct ProbeTally {
  uint64_t probes = 0;
  uint64_t negatives = 0;

  void AddTo(LsmStats* stats) const {
    stats->filter_probes.fetch_add(probes, std::memory_order_relaxed);
    stats->filter_negatives.fetch_add(negatives, std::memory_order_relaxed);
  }
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
  /// Open counts nothing into `stats`; the parameter stays while
  /// perfbench/replay.cc passes it.
  static std::unique_ptr<TableReader> Open(
      const std::string& path, const FilterPolicy* policy, LsmStats* stats,
      std::shared_ptr<BlockCache> cache = nullptr, uint64_t file_number = 0);

  ~TableReader();

  /// Tri-state point lookup: kHit fills `value` (when non-null),
  /// kTombstone means this table holds a deletion of the key — the
  /// caller must stop the newest-first walk and report "absent", never
  /// fall through to an older table. A tombstone hit confirms the
  /// filter's answer (the key IS in the table), so it is not counted
  /// as a false positive; nor is a probe whose data block cannot be
  /// read, whose outcome is unknown. The filter probe, and whether the
  /// filter rejected the key, count into `*tally` (non-null); block
  /// reads and cache lookups count into `stats` (may be null).
  Lookup Find(uint64_t key, std::string* value, ProbeTally* tally,
              LsmStats* stats) const;

  /// Single-table Find: the probe counts go straight into `stats`.
  Lookup Find(uint64_t key, std::string* value, LsmStats* stats) const {
    ProbeTally tally;
    const Lookup found = Find(key, value, &tally, stats);
    if (stats != nullptr) tally.AddTo(stats);
    return found;
  }

  /// Live-value lookup: Find == kHit. `value` may be null (existence
  /// check only). A tombstoned key reads as absent — single-table
  /// callers only; engine walks use Find so deletions shadow.
  bool Get(uint64_t key, std::string* value, LsmStats* stats) const {
    return Find(key, value, stats) == Lookup::kHit;
  }

  /// states[i] = Find(keys[i], &values[i]) for each i with states[i]
  /// == kMiss (`values` may be null), so a caller can chain the arrays
  /// through tables newest-first. Returns the number of newly resolved
  /// keys (hits + tombstones). Db does not call it; it is kept because
  /// perfbench's replay does.
  size_t MultiGet(std::span<const uint64_t> keys, Lookup* states,
                  std::string* values, LsmStats* stats) const;

  /// Batched range filter probe, the filter-side half of Db::ScanRange:
  /// may_match[i] is false when [los[i], his[i]] misses [min_key(),
  /// max_key()] (no probe, nothing counted), else the scalar
  /// MayContainRange answer for the range clipped to that span (true
  /// when the table has no filter). The probed ranges make one update
  /// of the table's outcome counters and of `stats` per batch.
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

  /// Registry name of the filter backend this table carries (parsed
  /// from the framed filter block); "" when the table has no filter.
  const std::string& filter_backend() const { return filter_backend_; }

  /// Lifetime probe outcomes of this table's filter, under its
  /// backend's name (Db::CollectFilterFeedback sums them per backend).
  BackendObservation filter_outcomes() const {
    return {filter_backend_,
            pt_allowed_.load(std::memory_order_relaxed),
            pt_false_.load(std::memory_order_relaxed),
            pt_neg_.load(std::memory_order_relaxed),
            rg_allowed_.load(std::memory_order_relaxed),
            rg_false_.load(std::memory_order_relaxed),
            rg_neg_.load(std::memory_order_relaxed)};
  }

  /// Closes the loop for a range probe the filter allowed: callers of
  /// RangeMultiProbe report whether the range held any entry; none
  /// means the filter answer was a false positive. No-op when the
  /// table has no filter.
  void AccountRangeOutcome(bool any_rows) const;

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
