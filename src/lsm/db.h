// Mini-LSM key-value store: the system substrate standing in for the
// paper's RocksDB v6.3.6 integration (Sect. 9, "Integration in
// RocksDB").
//
// Behaviour mirrored from the paper's setup:
//  - compaction disabled by default: flushed SSTs accumulate at level
//    0 and every read consults all of them, newest first (the paper's
//    measurement configuration). DbOptions::compaction enables a
//    background leveled compaction (L0 by file count, deeper levels by
//    byte budget) that keeps read amplification bounded;
//  - one full filter block per SST, built through a pluggable
//    FilterPolicy extended with range information (RangeMayMatch);
//  - probe counts per Db (stats(); a read call adds its point-probe
//    counts once, when it returns) and filter outcomes per table,
//    summed per backend (CollectFilterFeedback) — the measured FPR the
//    adaptive planner reads;
//  - one options object per store, as RocksDB's Options: every setting
//    is declared once, in DbOptions. ShardedDbOptions extends it with
//    num_shards, and compaction picking (lsm/compaction.h) reads the
//    tree shape from it after the constructor clamps it in place.
//
// Threading model (see README "Write path & durability"):
//  - Get/MultiGet/RangeScan/ScanRange/RangeMayMatch are safe from any
//    number of threads concurrently with writers. Each read takes one
//    snapshot of the current immutable Version (active memtable +
//    sealed memtables + leveled SST tree, published through an
//    atomically-swapped shared_ptr) and runs lock-free against it.
//  - Every write goes through WriteBatch (Put and Delete are one-op
//    batches), and writers from multiple threads run concurrently: the
//    memtable is an arena-backed concurrent skiplist (CAS-spliced
//    inserts), the WAL batches all concurrent appends into one
//    group-commit write, and the only serialization writers share is a
//    shared_mutex read lock around the seal swap (writers among
//    themselves are lock-free; sealing, and replacing a log whose
//    append failed, take the lock exclusively for one pointer swap +
//    WAL rotation).
//  - Flush: the Version's sealed list is the flush queue. A seal
//    appends to it in the same publication that swaps in a fresh
//    active memtable, and DrainSealed flushes its oldest entry until
//    none is left, stopping at the first failure. The background
//    worker runs that drain (one last pass at shutdown keeps whatever
//    it could not flush, whose logs replay on the next open); with
//    DbOptions::background_flush off, the sealing writer and Flush()/
//    WaitForFlush() run it on their own threads.
//  - Durability: with DbOptions::wal every write is logged before it
//    is applied, and a write whose log append failed is not applied
//    at all. The durable table state lives in a versioned MANIFEST
//    (see lsm/manifest.h): every flush and compaction appends a synced
//    edit before its Version publishes, recovery replays CURRENT →
//    MANIFEST → WAL in that order, and an SST is fsynced and renamed
//    into place before the manifest references it — so a crash at any
//    instant loses at most the records after the last group commit
//    (none with wal_fsync) and never loses, duplicates or resurrects
//    a flushed key.
//  - Deletes are first-class tombstones: a delete op is logged in its
//    batch's record, writes a tombstone through the memtable, and the
//    tombstone rides flushes into v3 SSTs where it shadows every older
//    value of its key on all read paths. Compaction physically drops a
//    tombstone only when no level below its output can still hold the
//    key (see lsm/compaction.h TombstoneShadow) — so a deleted key can
//    never resurrect, not even across crashes.
//
//   DbOptions options;
//   options.dir = "/tmp/db";
//   options.filter_policy = NewBloomRFPolicy(22.0, 1e6);
//   Db db(options);
//   db.Put(42, "value");
//   db.Flush();
//   std::string v;
//   db.Get(42, &v);
//   auto rows = db.RangeScan(40, 50, 100);

#ifndef BLOOMRF_LSM_DB_H_
#define BLOOMRF_LSM_DB_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/compaction.h"
#include "lsm/env.h"
#include "lsm/filter_policy.h"
#include "lsm/manifest.h"
#include "lsm/memtable.h"
#include "lsm/table_reader.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "util/backoff.h"
#include "util/thread_pool.h"

namespace bloomrf {

struct DbOptions {
  std::string dir;
  /// Null disables filter blocks entirely.
  std::shared_ptr<FilterPolicy> filter_policy;
  size_t block_size = 4096;
  uint64_t memtable_bytes = 64ull << 20;
  /// Shared LRU cache of parsed data blocks. Null creates a private
  /// cache of `block_cache_bytes` (pass an instance to share across Db
  /// objects); block_cache_bytes == 0 disables caching entirely.
  std::shared_ptr<BlockCache> block_cache;
  size_t block_cache_bytes = 4 << 20;
  /// Sealed memtables are written to SSTs by a background thread;
  /// writers never wait on file I/O. Off = the sealing write (or the
  /// Flush()/WaitForFlush() call) runs the same drain itself, on its
  /// own thread.
  bool background_flush = true;
  /// Write-ahead log: every write is group-committed to a CRC-framed
  /// log before it is applied (a failed append applies nothing), the
  /// log rotates at each memtable seal and after a failed append and
  /// is deleted once its memtable's flush has committed to the
  /// MANIFEST, and opening a Db replays any surviving logs newer than
  /// the manifest's flushed-through log number. Off = the pre-WAL
  /// behaviour (a crash loses the memtable).
  bool wal = true;
  /// fdatasync every group commit before Append returns. Off (default)
  /// leaves the OS page cache between commit and disk: a process crash
  /// loses nothing, a power loss can lose the last commits.
  bool wal_fsync = false;
  /// Directory for wal-*.log files; empty = `dir` (set it to place the
  /// log on a separate device).
  std::string wal_dir;
  /// Filesystem seam for every durable mutation: SST/MANIFEST/CURRENT
  /// creation, renames, deletions, directory syncs. Null = the
  /// process-wide POSIX Env. Tests pass a FaultInjectionEnv here to
  /// fail or "crash" any individual call site (see lsm/env.h).
  Env* env = nullptr;
  /// Background leveled compaction. Off (the paper's measurement
  /// setup) leaves every flushed SST at L0. On, a scheduler of
  /// compaction_threads workers merges L0 into L1 whenever L0 reaches
  /// l0_compaction_trigger files, and level i (>= 1) into level i+1
  /// whenever it exceeds level_base_bytes *
  /// level_size_multiplier^(i-1). Failed compactions retry with
  /// exponential backoff and never unpublish readable state (see
  /// stats().last_error()).
  bool compaction = false;
  size_t l0_compaction_trigger = 4;
  uint64_t level_base_bytes = 8ull << 20;
  size_t level_size_multiplier = 8;
  size_t max_levels = 6;
  /// Scheduler workers for background compaction: that many jobs on
  /// disjoint level pairs run concurrently (an L0->L1 merge while
  /// L2->L3 proceeds), each claiming its input + output levels so two
  /// jobs can never pick overlapping inputs. 1 = the serial behaviour.
  /// Also the default subcompaction fan-out.
  size_t compaction_threads = 1;
  /// Range-partitioned subcompactions: with a fan-out above 1 (see
  /// SubcompactionFanOut), every job's key space is split into up to
  /// this many disjoint ranges (cut at input-table boundary keys
  /// weighted by bytes), each merged on its own worker writing its own
  /// outputs, all committed in ONE manifest edit. 0 = match
  /// compaction_threads.
  size_t max_subcompactions = 0;
  /// Worker pool the subcompactions fan out on; pass one instance to
  /// share it across Dbs (ShardedDb hands every shard the same pool).
  /// Null creates a private pool sized to the subcompaction fan-out.
  /// The merging thread steals queued tasks while it waits, so even a
  /// 0-thread pool makes full progress.
  std::shared_ptr<ThreadPool> compaction_pool;
  /// Workload sampling for the adaptive filter loop: every read path
  /// (Get/MultiGet/RangeScan/ScanRange/RangeMayMatch) records a 1-in-64
  /// sample of its queries into the Db's own WorkloadSampler, which
  /// flush and compaction hand to the filter policy at build time. On
  /// automatically when the policy wants feedback
  /// (AdaptiveFilterPolicy); `sample_queries` forces it on for any
  /// policy.
  bool sample_queries = false;
};

struct DbFlushStats {
  double filter_create_seconds = 0;
  uint64_t filter_block_bytes = 0;
  uint64_t sst_files = 0;
};

/// What Db's constructor found and replayed from a previous life of
/// the same directory. Immutable after open.
struct DbRecoveryStats {
  uint64_t tables_loaded = 0;        // manifest-referenced SSTs re-opened
  uint64_t manifest_edits_replayed = 0;
  bool manifest_clean = true;  // false: manifest replay stopped at a torn tail
  /// SSTs renamed aside as <name>.corrupt: manifest-referenced ones
  /// that failed open-time validation, or every *.sst of a directory
  /// with no decodable manifest.
  uint64_t tables_quarantined = 0;
  uint64_t wal_files_replayed = 0;
  /// Logs at or below the manifest's flushed-through number: their
  /// data already lives in SSTs, so they are deleted without replay.
  uint64_t wal_files_skipped = 0;
  uint64_t wal_records_replayed = 0;
  uint64_t wal_entries_replayed = 0;  // key/value pairs re-applied
  bool wal_clean = true;  // false: replay stopped at a torn/corrupt tail
};

class Db {
 public:
  explicit Db(DbOptions options);
  /// Runs one last drain of the sealed memtables on the flush thread,
  /// parks the compaction workers, syncs the WAL, then joins the
  /// threads. A memtable the drain could not flush keeps its logs, and
  /// so does every newer one, so the next open replays them all (when
  /// the WAL is on).
  ~Db();

  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  /// The one write path. Logs all of `ops` as one WAL record (one
  /// group-commit participant, so recovery applies all or none of the
  /// batch), then applies them to the active memtable in order (a
  /// later op on the same key wins; concurrent readers may observe a
  /// prefix), and seals the memtable for flushing when it exceeds its
  /// budget. A delete writes a tombstone that shadows every older
  /// value of its key on all read paths until compaction proves
  /// nothing deeper can hold the key and physically drops it; deleting
  /// an absent key is legal. Safe from any number of threads
  /// concurrently (lock-free skiplist inserts behind a shared seal
  /// lock). Returns false, with stats().last_error() saying why, when
  /// the WAL append failed — nothing is applied then, and the next
  /// write goes to a fresh log — or when this write sealed the
  /// memtable and a (possibly earlier, background) flush failed — the
  /// write is applied, logged and readable then.
  bool WriteBatch(std::span<const WriteOp> ops);

  /// One-op WriteBatch calls: insert/overwrite a key, or delete it.
  bool Put(uint64_t key, std::string_view value);
  bool Delete(uint64_t key);

  /// Point read: active memtable, then the snapshot Version (sealed
  /// memtables newest-first, L0 newest-first, then each deeper level).
  /// The walk stops at the newest entry for the key — a tombstone
  /// there answers "absent" without consulting older sources.
  bool Get(uint64_t key, std::string* value);

  /// Batched point read: result[i] holds keys[i]'s value, or nullopt
  /// when absent. N Gets on one Version snapshot: each key takes Get's
  /// newest-first walk (a table whose [min, max] misses the key is not
  /// probed), so the whole batch sees one state of the store.
  std::vector<std::optional<std::string>> MultiGet(
      std::span<const uint64_t> keys);

  /// Returns up to `limit` entries with keys in [lo, hi], merged over
  /// the memtables and all SSTs (newest value wins on duplicates) — a
  /// one-range ScanRange.
  std::vector<std::pair<uint64_t, std::string>> RangeScan(uint64_t lo,
                                                          uint64_t hi,
                                                          size_t limit = 1024);

  /// Batched range scan: result[i] holds the RangeScan(los[i], his[i],
  /// limit) rows. Equivalent to N RangeScan calls but each table
  /// answers the whole batch in one call (TableReader::RangeMultiProbe:
  /// a range that misses the table's [min, max] is skipped unprobed, as
  /// Get skips keys, and the rest get a scalar MayContainRange clipped
  /// to that span), and each range streams one MergingIterator over the
  /// memtables and the tables that admitted it, reading blocks through
  /// the shared block cache, so overlapping ranges parse each block
  /// once. Spans of unequal length return an empty result.
  std::vector<std::vector<std::pair<uint64_t, std::string>>> ScanRange(
      std::span<const uint64_t> los, std::span<const uint64_t> his,
      size_t limit = 1024);

  /// True iff some entry may exist in [lo, hi] — the pure filter-path
  /// probe used by the FPR experiments. Memtables answer exactly; each
  /// table answers from its [min, max] span and its filter alone
  /// (TableReader::RangeMultiProbe), so no data block is read.
  bool RangeMayMatch(uint64_t lo, uint64_t hi);

  /// Seals the active memtable (no-op when empty) and waits until
  /// every sealed memtable has been flushed to an L0 SST. Returns
  /// false if a flush failed; the failed memtable's data stays
  /// readable from the Version's sealed list, and every Flush()/
  /// WaitForFlush() call retries it (in seal order, so SSTs always
  /// install oldest-first) until one succeeds.
  bool Flush();

  /// Waits until every already-sealed memtable is flushed (does not
  /// seal the active memtable), retrying a previously failed flush
  /// first. Returns false while the sealed list cannot drain.
  bool WaitForFlush();

  /// Kicks the compaction scheduler and waits until the whole pipeline
  /// drains — every trigger satisfied, no queued pick, no in-flight
  /// job or subcompaction worker, no manual compaction — or a
  /// compaction fails (returns false then, after clearing the error so
  /// the call acts as a retry). No-op true when compaction is off.
  /// Never blocks indefinitely on a broken disk.
  bool WaitForCompaction();

  /// Manually compacts every table overlapping [begin, end] into one
  /// fresh run at the deepest level those tables populate. The input
  /// range grows to whole-file boundaries (a file straddling the edge
  /// is compacted entirely, and the growth iterates to a fixpoint), so
  /// level disjointness and newest-wins precedence survive. Runs on
  /// the caller's thread through the same subcompaction machinery as
  /// background jobs, after waiting out in-flight jobs (workers pause
  /// picking while a manual compaction holds the tree); safe with
  /// background compaction on or off. Each output is rebuilt through
  /// the filter policy with the current workload snapshot. True when
  /// there was nothing to do; false when a flush or the merge failed.
  bool CompactRange(uint64_t begin, uint64_t end);

  /// CompactRange over the whole key space — the "re-tune every table
  /// now" lever for the adaptive filter loop, and the full-merge used
  /// by the tombstone-purge tests (nothing ends below the output, so
  /// every tombstone drops).
  bool CompactAll();

  /// The sampler observing this Db's queries; null unless sampling is
  /// on (see DbOptions::sample_queries).
  WorkloadSampler* workload_sampler() const { return sampler_.get(); }

  /// Aggregated filter probe outcomes of every live table, grouped by
  /// filter backend — the measured-FPR feedback the planner uses to
  /// distrust a diverging model.
  FilterFeedback CollectFilterFeedback() const;

  const LsmStats& stats() const { return stats_; }
  /// Zeroes the counters and last_error; the gauges (tombstones_live,
  /// compactions_inflight) keep describing the live store.
  void ResetStats() { stats_.Reset(); }
  /// Snapshot of flush-side counters. Exact after Flush()/
  /// WaitForFlush(); may lag mid-flight flushes otherwise.
  DbFlushStats flush_stats() const;
  /// What open() recovered from the directory (MANIFEST + SSTs + WAL).
  const DbRecoveryStats& recovery_stats() const { return recovery_stats_; }
  size_t num_tables() const { return versions_.Current()->table_count(); }
  /// File count per level of the current Version (index 0 = L0).
  std::vector<size_t> level_table_counts() const;
  uint64_t filter_memory_bits() const;
  const std::shared_ptr<BlockCache>& block_cache() const {
    return options_.block_cache;
  }

 private:
  std::string WalDirPath() const {
    return options_.wal_dir.empty() ? options_.dir : options_.wal_dir;
  }
  std::string SstPath(uint64_t file_number) const {
    return options_.dir + "/" + std::to_string(file_number) + ".sst";
  }
  /// The point-lookup walk of Get and MultiGet over `version`: true
  /// iff the newest entry for `key` is a live value, copied to *value.
  /// Filter probes count into the caller's `*tally`, which the caller
  /// adds to stats_ once per call; block reads go to stats_ directly.
  bool GetFrom(const Version& version, uint64_t key, std::string* value,
               ProbeTally* tally);
  /// Rebuilds the table tree from CURRENT → MANIFEST (falling back to
  /// the newest manifest on disk), quarantines tables it cannot use
  /// (unreadable, or no manifest to place them), writes a fresh
  /// snapshot manifest for this life, and replays surviving WAL files
  /// into the fresh active memtable.
  void Recover();
  /// Opens the manifest-referenced tables into a level structure;
  /// shared by the CURRENT and fallback recovery paths.
  std::vector<Version::TableList> OpenTablesFromManifest(
      const ManifestState& state, uint64_t* max_file_seen);
  /// Renames an SST recovery cannot use to <path>.corrupt so it is
  /// not retried forever, and accounts it.
  void QuarantineTable(const std::string& path);
  /// Opens the next wal-<n>.log and makes it current. Caller holds
  /// seal_mu_ exclusively (or is the constructor).
  void RotateWal();
  /// Removes wal files numbered <= `max_log`.
  void DeleteLogsThrough(uint64_t max_log);
  /// Seals the active memtable into the current Version (one atomic
  /// publication swaps in a fresh active and appends the old one, with
  /// its max_log, to the sealed list), rotates the WAL, and starts the
  /// drain. `force` seals any non-empty memtable; otherwise only one
  /// still over budget (a concurrent sealer may have won).
  bool SealActive(bool force);
  /// Writes one sealed memtable to an SST, appends the manifest edit,
  /// and swaps the memtable for the new table in the Version. The
  /// sealed memtable stays in the Version on any failure.
  bool FlushSealed(const Version::Sealed& entry);
  /// What every filter build of one flush or compaction job sees: the
  /// sampler and a feedback snapshot taken now (empty when sampling is
  /// off).
  FilterBuildContext FilterContext() const;
  /// Durably writes `mem` as a new SST through env_ and reopens it;
  /// fills *meta with its manifest metadata.
  std::shared_ptr<const TableReader> WriteSst(const MemTable& mem,
                                              FileMeta* meta);
  /// Recomputes the tombstones_live gauge (sum of v3 footer counts
  /// over the current Version's SSTs). Called after every publication
  /// that changes the table set.
  void UpdateTombstonesLive();
  /// The one drain rule: flushes the current Version's oldest sealed
  /// memtable until none is left. Stops at the first failure, keeping
  /// the failed memtable at the front for the next call, so tables
  /// install in seal order and no newer flush deletes the logs of an
  /// older memtable. Runs on the flush worker, or on the caller's
  /// thread with background_flush off.
  bool DrainSealed();
  void FlushWorker();

  /// Appends `edit` to the live manifest, or — when the manifest is
  /// broken, absent, or past its rewrite threshold — replaces it with
  /// a fresh one whose first record snapshots `post` (the Version the
  /// edit produces). Caller holds version_mu_. False means the edit is
  /// NOT durable and the caller must not publish the state change.
  bool AppendManifestEdit(const VersionEdit& edit, const Version& post);
  /// Writes MANIFEST-<next>, snapshots `v` into it, swaps CURRENT, and
  /// deletes the previous manifest. Caller holds version_mu_.
  bool WriteManifestSnapshotLocked(const Version& v);

  void MaybeScheduleCompaction();
  /// One subcompaction's private output state; folded into the job's
  /// single manifest edit only when every range succeeded.
  struct SubcompactionResult {
    Version::TableList outputs;        // in key order within the range
    std::vector<FileMeta> metas;
    std::vector<std::string> paths;    // for cleanup on job failure
    uint64_t bytes_written = 0;
    uint64_t tombstones_written = 0;
    uint64_t tombstones_dropped = 0;
    bool ok = false;
    std::string error;
  };
  /// Merges `job`'s inputs restricted to keys in [lo, hi] through one
  /// MergingIterator (newest input wins duplicates) straight into
  /// TableBuilder, tombstones dropped per `shadow`,
  /// outputs split near the level's file-size target. Runs on a
  /// subcompaction worker; touches only atomics, the shared read-only
  /// job state, and its own `result`.
  void MergeRange(const CompactionJob& job, const TombstoneShadow& shadow,
                  const FilterBuildContext& build_ctx, uint64_t lo,
                  uint64_t hi, SubcompactionResult* result);
  /// Executes one job: splits it into range-partitioned subcompactions
  /// (PickSubcompactionRanges), merges them in parallel on the shared
  /// pool, and commits every output in ONE manifest edit + Version
  /// publication, then deletes the input files. False on any I/O
  /// failure — all outputs are removed, inputs stay published, the
  /// store remains fully readable.
  bool RunCompaction(const CompactionJob& job);
  void CompactionWorker();

  /// The caller's options, completed by the constructor: the
  /// compaction shape clamped to workable values, and a null
  /// block_cache or compaction_pool replaced by a private one.
  DbOptions options_;
  Env* env_ = nullptr;  // resolved: options_.env or Env::Default()
  std::unique_ptr<WorkloadSampler> sampler_;  // null when sampling is off

  // Write path. Writers (WriteBatch only) take seal_mu_ shared — among
  // themselves they are lock-free (concurrent skiplist inserts,
  // group-committed WAL appends). Sealing takes it exclusive for the
  // active-memtable swap and WAL rotation, and so does replacing a log
  // whose append failed; that is what keeps "record in log N" and
  // "entry in memtable sealed with max_log >= N" in lockstep.
  std::shared_mutex seal_mu_;
  std::shared_ptr<MemTable> active_;   // == versions_.Current()->active()
  std::unique_ptr<WalWriter> wal_;     // null when options_.wal is off
  uint64_t next_wal_number_ = 1;       // guarded by seal_mu_
  uint64_t active_max_log_ = 0;        // guarded by seal_mu_

  // Read-state publication. version_mu_ serializes read-modify-publish
  // sequences (seal on the write path, install on the flush thread,
  // replace on the compaction thread) and the manifest append that
  // makes each publication durable; readers go straight to
  // versions_.Current().
  std::mutex version_mu_;
  VersionSet versions_;

  // Manifest state, guarded by version_mu_ (every edit is appended in
  // the same critical section as the publication it describes).
  std::unique_ptr<ManifestWriter> manifest_;
  uint64_t next_manifest_number_ = 1;
  uint64_t manifest_rewrite_limit_ = 0;
  /// Highest WAL number whose data has fully reached manifest-committed
  /// SSTs; recovery skips logs at or below it.
  uint64_t flushed_through_log_ = 0;

  // Flush pipeline. The queue is the Version's sealed list; flush_mu_
  // guards the worker handshake below.
  std::mutex flush_mu_;
  std::condition_variable flush_work_cv_;  // wakes the worker
  std::condition_variable flush_done_cv_;  // wakes Flush()/WaitForFlush()
  // Set when the worker's drain stopped at a failure; the worker parks
  // instead of hot-looping, and it stays set (every drain call reports
  // false) until a seal or a Flush()/WaitForFlush() triggers a retry
  // that succeeds.
  bool flush_error_ = false;
  bool stop_ = false;
  std::mutex drain_mu_;  // one DrainSealed at a time
  std::thread flush_thread_;

  // Compaction scheduler, guarded by compact_mu_. compaction_threads
  // workers each loop pick -> claim levels -> run -> release: a worker
  // re-picks from the freshest Version with the busy-level mask, so
  // concurrent jobs always work disjoint level pairs. compact_epoch_
  // increments on every job completion / manual handover — a worker
  // that found nothing pickable (levels busy) parks on it instead of
  // spinning. compact_requested_ clears only when nothing is pickable
  // AND nothing is in flight. A failed job sets compact_error_
  // (visible through WaitForCompaction) and its worker owns the
  // exponential-backoff retry while the others park.
  std::mutex compact_mu_;
  std::condition_variable compact_work_cv_;  // wakes the workers
  std::condition_variable compact_done_cv_;  // wakes WaitForCompaction
  bool compact_requested_ = false;
  bool compact_error_ = false;
  bool compact_stop_ = false;
  bool manual_compact_active_ = false;  // CompactRange holds the tree
  uint64_t compact_busy_levels_ = 0;    // claim bitmask of in-flight jobs
  size_t compact_inflight_ = 0;         // background jobs running
  uint64_t compact_epoch_ = 0;          // bumped on scheduler state change
  std::vector<std::thread> compact_threads_;
  std::vector<uint64_t> compact_cursors_;  // guarded by compact_mu_
  Backoff compact_backoff_;                // guarded by compact_mu_

  std::atomic<uint64_t> next_file_number_{1};
  LsmStats stats_;
  DbRecoveryStats recovery_stats_;
  mutable std::mutex flush_stats_mu_;
  DbFlushStats flush_stats_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_DB_H_
