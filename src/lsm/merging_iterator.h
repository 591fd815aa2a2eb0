// Streaming k-way merge over the read sources of one Version — the one
// place where newest-wins and tombstone shadowing are decided, for
// scans (Db::ScanRange) and compaction (Db::MergeRange) alike.
//
// Sources are memtables and SSTs, added newest first. A min-heap holds
// one cursor per source, ordered by (key, rank) where rank 0 is the
// newest source. After Seek(lo) the iterator yields every key in
// [lo, hi] exactly once, from the newest source that holds it, with
// that entry's tombstone flag; the older versions of the key are
// skipped. Tombstones are yielded, not dropped: a scan skips them, a
// compaction writes or drops them per its TombstoneShadow.
//
// Nothing is buffered beyond one block per table cursor, so no source
// is ever truncated and a scan may stop after any number of rows.

#ifndef BLOOMRF_LSM_MERGING_ITERATOR_H_
#define BLOOMRF_LSM_MERGING_ITERATOR_H_

#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "lsm/memtable.h"
#include "lsm/table_reader.h"

namespace bloomrf {

class MergingIterator {
 public:
  /// Yields keys <= `hi` only.
  explicit MergingIterator(uint64_t hi = UINT64_MAX) : hi_(hi) {}

  /// Adds the next-older source; its rank is the number of sources
  /// added before it. Sources must outlive the iterator.
  void AddMemTable(const MemTable& mem);
  void AddTable(const TableReader& table, TableReader::ReadMode mode,
                LsmStats* stats);

  /// Positions every source on its first key >= `lo` and the iterator
  /// on the smallest of them that is <= hi. May be called again.
  void Seek(uint64_t lo);

  bool Valid() const { return !heap_.empty(); }
  uint64_t key() const { return heap_.front().key; }
  /// Value and tombstone flag of the newest source holding key(); the
  /// value stays valid until the next Next or Seek.
  std::string_view value() const;
  bool tombstone() const;
  /// Moves to the next key, past every older version of key().
  void Next();

  /// Between Seek and the first Next: whether the source of rank
  /// `rank` holds a key in [lo, hi].
  bool SourceInRange(size_t rank) const;
  /// False once a table source stopped at an unreadable block; that
  /// source then yields nothing more.
  bool ok() const { return ok_; }

 private:
  struct Source {
    const MemTable* mem = nullptr;  // exactly one of mem / table is set
    const TableReader* table = nullptr;
    TableReader::ReadMode mode = TableReader::ReadMode::kCached;
    LsmStats* stats = nullptr;
  };
  using Cursor = std::variant<MemTable::Iterator, TableReader::Iterator>;
  struct HeapEntry {
    uint64_t key;
    uint32_t rank;
  };

  /// Pushes the cursor of `rank` onto the heap if it holds a key <= hi.
  void Push(uint32_t rank);

  const uint64_t hi_;
  std::vector<Source> sources_;
  std::vector<Cursor> cursors_;  // by rank, built by Seek
  std::vector<HeapEntry> heap_;  // min-heap on (key, rank)
  bool ok_ = true;
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_MERGING_ITERATOR_H_
