// Tracing of the LSM benchmark: spans recorded from the benchmark's
// own code, and the replays that split one Db request into the layer
// calls it is made of.
//
// The engine is measured from outside. A traced run times every Db
// verb call as a span, then replays the same request into the layers'
// public functions and records each replayed call as a child span:
//  - TreeReplay opens the store's own SSTs read-only (the live
//    MANIFEST says which, and at which level) and walks them the way
//    Db does: newest first, min/max skipping for Get and MultiGet, a
//    batched filter probe then block scans for ScanRange. It has its
//    own block cache, which sees the same block sequence as the Db's.
//  - WriteReplay feeds a write stream into a MemTable, a WalWriter and
//    a TableBuilder owned by the benchmark, sealing at the Db's
//    memtable budget.
// A layer's self time is its span minus its replayed children (see
// ReplaySelfTime). Replayed calls run right after the original one, on
// warm CPU caches, so they are a little faster than inside the call.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_stats.h"
#include "lsm/block_cache.h"
#include "lsm/env.h"
#include "lsm/filter_policy.h"
#include "lsm/memtable.h"
#include "lsm/table_reader.h"
#include "lsm/wal.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every span the benchmark records. Verb spans are the Db calls of
/// the timed phase; "pass.*" are the Db calls of ingest_mixed's read
/// pass on the drained tree; the rest are replayed layer calls.
enum class SpanName : uint16_t {
  kGet,
  kMultiGet,
  kScanRange,
  kPut,
  kDelete,
  kPassGet,
  kPassMultiGet,
  kPassScanRange,
  kFilterPoint,        // MayContain / MayContainBatch (items = keys)
  kFilterRange,        // MayContainRangeBatch (items = ranges)
  kTableFindHit,       // Find whose block was in the replay cache
  kTableFindLoad,      // Find that loaded its block into the cache
  kTableFindNoCache,   // Find on a reader without cache: pread+CRC+parse
  kTableMultiGet,      // TableReader::MultiGet (items = pending keys)
  kTableScanBlocks,    // ScanBlocks on one allowed range
  kMemtablePut,        // MemTable::Put or Delete
  kMemtableFind,
  kWalAppend,
  kFlushBuild,         // TableBuilder Add + WriteTo (items = entries)
  kFlushBuildNoFilter, // the same build without the filter policy
  kCompactAll,
  kDrain,              // WaitForCompaction
  kReplay,             // all replay work of one request (tracing cost)
  kCount,
};

const char* SpanNameString(SpanName name);

struct SpanStats {
  uint64_t count = 0;
  uint64_t items = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// Span recorder. Every span updates its name's running totals; the
/// first `keep` spans are also kept in memory and written out at exit.
class Tracer {
 public:
  explicit Tracer(size_t keep);

  uint32_t NewId() { return next_id_++; }
  /// Records a finished span. `children_ns` is the replayed child time
  /// its self time excludes.
  void Add(uint32_t id, uint32_t parent, uint32_t request, SpanName name,
           int64_t start_ns, int64_t end_ns, uint32_t items,
           int64_t children_ns);
  /// Records a span with a fresh id and returns its duration.
  int64_t AddChild(uint32_t parent, uint32_t request, SpanName name,
                   int64_t start_ns, int64_t end_ns, uint32_t items,
                   int64_t children_ns = 0) {
    Add(NewId(), parent, request, name, start_ns, end_ns, items, children_ns);
    return end_ns - start_ns;
  }

  const SpanStats& stats(SpanName name) const {
    return stats_[static_cast<size_t>(name)];
  }
  uint64_t recorded() const { return recorded_; }
  size_t kept() const { return spans_.size(); }
  /// Writes the kept spans as TSV: id parent request name start_ns
  /// end_ns items self_ns (times relative to the first span).
  bool WriteTsv(const std::string& path) const;

 private:
  struct Span {
    uint32_t id;
    uint32_t parent;
    uint32_t request;
    SpanName name;
    uint32_t items;
    int64_t start_ns;
    int64_t end_ns;
    int64_t self_ns;
  };
  size_t keep_;
  uint32_t next_id_ = 1;  // 0 = no parent
  uint64_t recorded_ = 0;
  std::vector<Span> spans_;
  SpanStats stats_[static_cast<size_t>(SpanName::kCount)];
};

/// Env that makes Sync and SyncDir no-ops and forwards everything else
/// to the default POSIX Env: the store behaves as on tmpfs, where a
/// sync costs nothing, while staying inside the benchmark's directory.
class NoSyncEnv : public bloomrf::Env {
 public:
  std::unique_ptr<bloomrf::WritableFile> NewWritableFile(
      const std::string& path) override;
  bool RenameFile(const std::string& from, const std::string& to) override {
    return base()->RenameFile(from, to);
  }
  bool DeleteFile(const std::string& path) override {
    return base()->DeleteFile(path);
  }
  bool SyncDir(const std::string&) override { return true; }
  bool FileExists(const std::string& path) override {
    return base()->FileExists(path);
  }

 private:
  static bloomrf::Env* base() { return bloomrf::Env::Default(); }
};

/// Read replay over a frozen tree (no writes, no background work).
class TreeReplay {
 public:
  /// Opens the SSTs the live MANIFEST of `dir` names. Null (with
  /// *error set) when the manifest or a table cannot be read.
  static std::unique_ptr<TreeReplay> Open(const std::string& dir,
                                          const bloomrf::FilterPolicy* policy,
                                          size_t cache_bytes,
                                          std::string* error);

  /// Reads every block of every table once through the replay cache.
  void WarmCache();

  /// Replays one request under verb span `verb`; returns the summed
  /// duration of the replayed children of `verb`.
  int64_t Get(uint64_t key, uint32_t request, uint32_t verb, Tracer* tracer);
  int64_t MultiGet(std::span<const uint64_t> keys, uint32_t request,
                   uint32_t verb, Tracer* tracer);
  int64_t ScanRange(std::span<const uint64_t> los,
                    std::span<const uint64_t> his, size_t limit,
                    uint32_t request, uint32_t verb, Tracer* tracer);

  /// Filter answers for keys and ranges that hold no stored key.
  struct FprCounts {
    uint64_t point_probes = 0, point_maybe = 0;
    uint64_t range_probes = 0, range_maybe = 0;
  };
  /// Probes the tables' filters with about `points` absent keys and
  /// `ranges` empty ranges (widths log-uniform in [2^2, 2^20]) in all,
  /// shared out by file size and drawn inside each table's [min, max].
  /// `stored(lo, hi)` says whether the store holds a key in [lo, hi];
  /// candidates for which it does are redrawn. Every "maybe" is then a
  /// false positive.
  template <class Stored>
  FprCounts ProbeFilters(uint64_t seed, size_t total_points,
                         size_t total_ranges, const Stored& stored) const;

  size_t table_count() const { return tables_.size(); }
  /// Tables whose min/max admitted a replayed Get key, summed.
  uint64_t get_tables_admitted() const { return get_tables_admitted_; }

 private:
  struct Table {
    std::unique_ptr<bloomrf::TableReader> cached;
    std::unique_ptr<bloomrf::TableReader> uncached;
  };
  TreeReplay() = default;

  std::vector<Table> tables_;  // read precedence: L0 newest first, then L1+
  std::shared_ptr<bloomrf::BlockCache> cache_;
  bloomrf::LsmStats stats_;  // replay-side counters, not the Db's
  uint64_t get_tables_admitted_ = 0;
};

template <class Stored>
TreeReplay::FprCounts TreeReplay::ProbeFilters(uint64_t seed,
                                               size_t total_points,
                                               size_t total_ranges,
                                               const Stored& stored) const {
  FprCounts counts;
  Rng rng(seed);
  double total_bytes = 0;
  for (const Table& t : tables_) total_bytes += static_cast<double>(t.cached->file_size());
  std::vector<uint64_t> keys, los, his;
  for (const Table& t : tables_) {
    const bloomrf::TableReader& reader = *t.cached;
    const bloomrf::PointRangeFilter* filter = reader.filter();
    if (filter == nullptr) continue;
    const double share = static_cast<double>(reader.file_size()) / total_bytes;
    const auto points = static_cast<size_t>(static_cast<double>(total_points) * share);
    const auto ranges = static_cast<size_t>(static_cast<double>(total_ranges) * share);
    const uint64_t span = reader.max_key() - reader.min_key();
    auto inside = [&] {
      return span == UINT64_MAX ? rng.Next() : reader.min_key() + rng.Below(span + 1);
    };
    keys.clear();
    while (keys.size() < points) {
      const uint64_t k = inside();
      if (!stored(k, k)) keys.push_back(k);
    }
    los.clear();
    his.clear();
    while (los.size() < ranges) {
      const auto width = static_cast<uint64_t>(std::exp2(2 + 18 * rng.Unit()));
      const uint64_t lo = inside();
      const uint64_t hi = lo > UINT64_MAX - (width - 1) ? UINT64_MAX : lo + width - 1;
      if (stored(lo, hi)) continue;
      los.push_back(lo);
      his.push_back(hi);
    }
    auto maybe = std::make_unique<bool[]>(std::max(points, ranges));
    filter->MayContainBatch(keys, maybe.get());
    counts.point_probes += points;
    counts.point_maybe += static_cast<uint64_t>(std::count(maybe.get(), maybe.get() + points, true));
    filter->MayContainRangeBatch(los, his, maybe.get());
    counts.range_probes += ranges;
    counts.range_maybe += static_cast<uint64_t>(std::count(maybe.get(), maybe.get() + ranges, true));
  }
  return counts;
}

/// Write-path replay: a MemTable, a WalWriter and a TableBuilder fed
/// one write stream.
class WriteReplay {
 public:
  /// Files go under `dir`. Sealed memtables are built into SSTs (with
  /// and without the filter policy) for the first `max_builds` seals.
  WriteReplay(std::string dir, const bloomrf::FilterPolicy* policy,
              uint64_t memtable_bytes, size_t block_size, bloomrf::Env* env,
              size_t max_builds);
  ~WriteReplay();
  WriteReplay(const WriteReplay&) = delete;
  WriteReplay& operator=(const WriteReplay&) = delete;

  /// Each returns the replayed children's duration.
  int64_t Put(uint64_t key, std::string_view value, uint32_t request,
              uint32_t parent, Tracer* tracer);
  int64_t Delete(uint64_t key, uint32_t request, uint32_t parent,
                 Tracer* tracer);
  int64_t Find(uint64_t key, uint32_t request, uint32_t parent,
               Tracer* tracer);
  /// Makes the most recently sealed (full) memtable the one Find
  /// searches, when the active one holds less.
  void FindInFullestMemtable();

 private:
  void RotateWal();
  void MaybeSeal(Tracer* tracer);

  std::string dir_;
  const bloomrf::FilterPolicy* policy_;
  uint64_t memtable_bytes_;
  size_t block_size_;
  bloomrf::Env* env_;
  size_t max_builds_;
  uint64_t builds_ = 0;
  uint64_t wal_number_ = 0;
  std::shared_ptr<bloomrf::MemTable> active_;
  std::shared_ptr<bloomrf::MemTable> last_sealed_;
  std::unique_ptr<bloomrf::WalWriter> wal_;
  std::string record_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
