// Data-block format of the mini-LSM SST files.
//
// A block is a sorted run of (uint64 key, value) entries:
//   entry := key:fixed64  meta:fixed32  value_bytes
// The meta word packs the value length in its low 31 bits and a
// tombstone flag (deletion marker, empty value) in the top bit.
// Blocks target Options::block_size bytes (RocksDB-style 4 KiB
// default); the index block stores each data block's last key. The
// format carries no entry index: ParseBlock builds one, an offset per
// entry, when a block is read, and CachedBlock reads entries in place.

#ifndef BLOOMRF_LSM_BLOCK_H_
#define BLOOMRF_LSM_BLOCK_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/coding.h"

namespace bloomrf {

/// Tri-state point-lookup outcome shared by every read source
/// (memtable, SST): a tombstone is a definite answer — the key was
/// deleted by a write newer than anything in older sources — so
/// lookups stop there instead of falling through and resurrecting an
/// older value.
enum class Lookup : uint8_t {
  kMiss = 0,       // not in this source; keep looking in older ones
  kHit = 1,        // live value found
  kTombstone = 2,  // deleted here; the key is definitively absent
};

/// One copied scan row (MemTable::Snapshot, TableReader::ScanBlocks),
/// tombstones included so they can still shadow older live values.
struct ScanEntry {
  uint64_t key = 0;
  std::string value;
  bool tombstone = false;
};

class BlockBuilder {
 public:
  static constexpr uint32_t kTombstoneBit = 1u << 31;
  static constexpr size_t kEntryHeaderBytes = 12;  // key + meta

  void Add(uint64_t key, std::string_view value, bool tombstone = false);

  size_t SizeBytes() const { return buffer_.size(); }
  size_t NumEntries() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }
  uint64_t last_key() const { return last_key_; }

  /// Returns the serialized block and resets the builder.
  std::string Finish();

 private:
  std::string buffer_;
  size_t num_entries_ = 0;
  uint64_t last_key_ = 0;
};

/// Validates a serialized block and sets `offsets` to the byte offset
/// of each entry in it, in key order. Returns false on corruption (a
/// truncated entry, a tombstone that carries a value) and for a block
/// too large for 32-bit offsets.
bool ParseBlock(std::string_view data, std::vector<uint32_t>* offsets);

/// A data block as the read path and the block cache hold it: the raw
/// bytes and the offset of each entry in them (ParseBlock). Entries are
/// read in place, as LevelDB's Block reads its bytes; nothing is copied
/// per entry.
struct CachedBlock {
  std::string raw;
  std::vector<uint32_t> offsets;

  size_t size() const { return offsets.size(); }
  uint64_t key(size_t i) const { return DecodeFixed64(entry(i)); }
  bool tombstone(size_t i) const {
    return (meta(i) & BlockBuilder::kTombstoneBit) != 0;
  }
  std::string_view value(size_t i) const {
    return {entry(i) + BlockBuilder::kEntryHeaderBytes,
            meta(i) & ~BlockBuilder::kTombstoneBit};
  }
  /// Index of the first entry with key >= `k`; size() when none.
  size_t LowerBound(uint64_t k) const {
    auto below = [&](uint32_t offset) {
      return DecodeFixed64(raw.data() + offset) < k;
    };
    return std::partition_point(offsets.begin(), offsets.end(), below) -
           offsets.begin();
  }

  /// Bytes the block holds while cached.
  size_t ChargeBytes() const {
    return raw.size() + offsets.capacity() * sizeof(uint32_t) +
           sizeof(CachedBlock);
  }

 private:
  const char* entry(size_t i) const { return raw.data() + offsets[i]; }
  uint32_t meta(size_t i) const { return DecodeFixed32(entry(i) + 8); }
};

}  // namespace bloomrf

#endif  // BLOOMRF_LSM_BLOCK_H_
