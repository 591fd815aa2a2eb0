// Immutable snapshot of a Db's complete readable state: the active
// memtable, the sealed (flush-pending) memtables, and the leveled SST
// tree.
//
// Table precedence (newest data first): active memtable, sealed
// memtables newest-first, L0 newest-first (flush order, files may
// overlap), then L1, L2, ... — each deeper level is a sorted run of
// disjoint key ranges, so within a level at most one file can contain
// a given key and order inside the level carries no recency meaning.
//
// A Version is never mutated after construction (the active MemTable's
// *contents* grow — it is internally locked — but which object is
// active only changes by publishing a new Version). State changes
// build a new Version from the current one (WithSealedActive /
// WithFlushed / WithCompaction) and publish it through VersionSet's
// atomically-swapped shared_ptr, so a reader takes one snapshot
// (Current()) and runs lock-free against a stable memtable/table tree
// while writers seal, the flush thread installs L0 tables and the
// compaction thread replaces whole input sets in one publication.
// Readers holding an old Version keep its memtables and tables alive
// through shared ownership; nothing is torn down under them (POSIX
// keeps unlinked-but-open SSTs readable, so obsolete-file deletion
// after a compaction commit cannot hurt a reader either).
//
// Mutators must externally serialize their read-modify-publish
// sequences (Db uses one version mutex); VersionSet makes the
// publication itself atomic so readers never observe a partially
// updated pointer. The swap is guarded by a tiny internal mutex rather
// than std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic uses a
// lock-bit protocol ThreadSanitizer cannot model (false positives even
// on a plain store/load pair), and a pointer copy under an
// uncontended mutex costs the same handful of atomic ops.

#ifndef BLOOMRF_LSM_VERSION_H_
#define BLOOMRF_LSM_VERSION_H_

#include <memory>
#include <mutex>
#include <vector>

#include "lsm/memtable.h"
#include "lsm/table_reader.h"

namespace bloomrf {

class Version {
 public:
  using TableList = std::vector<std::shared_ptr<const TableReader>>;

  /// Base version: fresh empty active memtable, one empty level.
  Version() : active_(std::make_shared<MemTable>()), levels_(1) {}

  /// The memtable currently absorbing writes (newest data of all).
  const std::shared_ptr<MemTable>& active() const { return active_; }
  /// Sealed memtables awaiting (or having failed) flush, oldest
  /// first. Every sealed memtable is newer than every table.
  const std::vector<std::shared_ptr<const MemTable>>& sealed() const {
    return sealed_;
  }
  /// levels()[0] = L0 in flush order (oldest first, files may
  /// overlap); levels()[i>=1] = a sorted run (by min_key) of disjoint
  /// files. Always at least one level.
  const std::vector<TableList>& levels() const { return levels_; }
  /// Every table in read precedence order: L0 newest-first, then each
  /// deeper level in key order. Built once per Version; the pointers
  /// live as long as the Version.
  const std::vector<const TableReader*>& tables() const { return tables_; }

  size_t table_count() const { return tables_.size(); }
  /// Sum of the level's on-disk file sizes (compaction pressure).
  uint64_t level_bytes(size_t level) const {
    if (level >= levels_.size()) return 0;
    uint64_t bytes = 0;
    for (const auto& table : levels_[level]) bytes += table->file_size();
    return bytes;
  }

  /// New Version whose active memtable is `fresh` and whose sealed
  /// list gains the previously active memtable — the seal step, as one
  /// atomic publication.
  std::shared_ptr<const Version> WithSealedActive(
      std::shared_ptr<MemTable> fresh) const;

  /// New Version with the sealed entry `flushed` removed (compared by
  /// address; a no-op removal is fine) and `table` appended to L0.
  std::shared_ptr<const Version> WithFlushed(
      const MemTable* flushed, std::shared_ptr<const TableReader> table) const;

  /// New Version with the compaction inputs (located by file number
  /// across all levels) removed and `outputs` merged into
  /// `output_level`, which is kept sorted by min_key. Non-input files
  /// keep their relative order, so L0 files that were flushed while
  /// the compaction ran retain their recency position.
  std::shared_ptr<const Version> WithCompaction(
      const std::vector<uint64_t>& input_files, size_t output_level,
      TableList outputs) const;

  /// Recovery constructor: a Version holding exactly `levels` (plus a
  /// fresh active memtable).
  static std::shared_ptr<const Version> FromLevels(
      std::vector<TableList> levels);

 private:
  struct Raw {};  // tag: the With* builders fill every field themselves
  explicit Version(Raw) {}

  /// Fills tables_ from levels_.
  void OrderTables();

  std::shared_ptr<MemTable> active_;
  std::vector<std::shared_ptr<const MemTable>> sealed_;
  std::vector<TableList> levels_;
  std::vector<const TableReader*> tables_;
};

/// Holder of the current Version: readers copy the pointer in one
/// short critical section and then run lock-free on the snapshot;
/// Publish() atomically swaps it.
class VersionSet {
 public:
  VersionSet() : current_(std::make_shared<const Version>()) {}

  std::shared_ptr<const Version> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  void Publish(std::shared_ptr<const Version> v) {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(v);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Version> current_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_VERSION_H_
