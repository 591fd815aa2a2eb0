#include "lsm/table_reader.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include <unistd.h>

#include "lsm/block.h"
#include "lsm/table_builder.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace bloomrf {

namespace {

// Process-unique table ids namespace the shared block cache's keys.
std::atomic<uint64_t> g_next_table_id{1};

// File size via the 64-bit tell; -1 on error. Only called from Open,
// before any concurrent reader exists.
int64_t FileSize(std::FILE* f) {
  if (fseeko(f, 0, SEEK_END) != 0) return -1;
  return static_cast<int64_t>(ftello(f));
}

}  // namespace

// Positioned read, safe for concurrent callers: pread carries its own
// offset and touches no shared cursor (and takes 64-bit offsets, so
// SSTs past 2 GiB read correctly).
bool TableReader::ReadFileAt(uint64_t offset, uint64_t size,
                             std::string* out) const {
  out->resize(size);
  int fd = fileno(file_);
  size_t done = 0;
  while (done < size) {
    ssize_t n = pread(fd, out->data() + done, size - done,
                      static_cast<off_t>(offset + done));
    if (n <= 0) return false;  // EOF or error; short SSTs are corrupt
    done += static_cast<size_t>(n);
  }
  return true;
}

TableReader::~TableReader() {
  // No Version holds this table any more, so no reader can cache its
  // blocks again.
  if (cache_ != nullptr) cache_->EraseTable(table_id_, index_.size());
  if (file_ != nullptr) std::fclose(file_);
}

std::unique_ptr<TableReader> TableReader::Open(
    const std::string& path, const FilterPolicy* policy, LsmStats* /*stats*/,
    std::shared_ptr<BlockCache> cache, uint64_t file_number) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return nullptr;
  std::unique_ptr<TableReader> reader(new TableReader());
  reader->file_ = f;
  reader->cache_ = std::move(cache);
  reader->table_id_ = g_next_table_id.fetch_add(1, std::memory_order_relaxed);
  reader->path_ = path;
  reader->file_number_ = file_number;

  int64_t file_size = FileSize(f);
  if (file_size < 56) return nullptr;
  reader->file_size_ = static_cast<uint64_t>(file_size);

  std::string footer;
  if (!reader->ReadFileAt(reader->file_size_ - 56, 56, &footer) ||
      DecodeFixed64(footer.data() + 48) != TableBuilder::kMagicV3) {
    return nullptr;
  }
  const uint64_t index_off = DecodeFixed64(footer.data());
  const uint64_t index_size = DecodeFixed64(footer.data() + 8);
  const uint64_t filter_off = DecodeFixed64(footer.data() + 16);
  const uint64_t filter_size = DecodeFixed64(footer.data() + 24);
  reader->num_tombstones_ = DecodeFixed64(footer.data() + 32);
  const uint32_t index_crc = DecodeFixed32(footer.data() + 40);
  const uint32_t filter_crc = DecodeFixed32(footer.data() + 44);

  // Metadata bounds before any dependent read: a corrupt footer must
  // not direct reads past the file or allocate absurd buffers.
  if (index_off > reader->file_size_ ||
      index_size > reader->file_size_ - index_off ||
      filter_off > reader->file_size_ ||
      filter_size > reader->file_size_ - filter_off ||
      index_size % 24 != 0) {
    return nullptr;
  }

  std::string index_data;
  if (!reader->ReadFileAt(index_off, index_size, &index_data)) return nullptr;
  if (Crc32c(index_data) != index_crc) return nullptr;
  uint64_t expected_offset = 0;
  for (size_t pos = 0; pos < index_data.size(); pos += 24) {
    IndexEntry entry{DecodeFixed64(index_data.data() + pos),
                     DecodeFixed64(index_data.data() + pos + 8),
                     DecodeFixed64(index_data.data() + pos + 16)};
    // Blocks are laid out contiguously with strictly increasing last
    // keys; anything else is corruption the read paths must never see.
    if (entry.offset != expected_offset || entry.size == 0 ||
        entry.size > index_off - entry.offset) {
      return nullptr;
    }
    if (!reader->index_.empty() &&
        entry.last_key <= reader->index_.back().last_key) {
      return nullptr;
    }
    expected_offset = entry.offset + entry.size + 4;  // + trailing block CRC
    reader->index_.push_back(entry);
  }
  if (expected_offset != index_off) return nullptr;

  if (policy != nullptr && filter_size > 0) {
    std::string filter_data;
    if (!reader->ReadFileAt(filter_off, filter_size, &filter_data)) {
      return nullptr;
    }
    if (Crc32c(filter_data) != filter_crc) return nullptr;
    // The block is registry-framed; a corrupt or unknown block loads as
    // null and the table falls back to scanning.
    reader->filter_ = policy->LoadFilter(filter_data);
    if (reader->filter_ != nullptr) {
      // Remember which backend the block carries: measured FP/TN
      // outcomes are aggregated per backend for the filter planner.
      std::string_view backend, payload;
      if (FilterRegistry::ParseFrame(filter_data, &backend, &payload)) {
        reader->filter_backend_ = std::string(backend);
      }
    }
  }

  // Min/max keys: first key of first block, last key of last block.
  if (!reader->index_.empty()) {
    std::string block;
    if (!reader->ReadBlockAt(0, &block, nullptr)) return nullptr;
    if (block.size() >= 8) reader->min_key_ = DecodeFixed64(block.data());
    reader->max_key_ = reader->index_.back().last_key;
  }
  return reader;
}

bool TableReader::ReadBlockAt(size_t index_pos, std::string* buffer,
                              LsmStats* stats) const {
  const IndexEntry& entry = index_[index_pos];
  // Blocks carry a trailing CRC-32C: read payload+4, verify, trim.
  const uint64_t physical = entry.size + 4;
  const bool ok = ReadFileAt(entry.offset, physical, buffer);
  if (stats != nullptr) {
    stats->blocks_read.fetch_add(1, std::memory_order_relaxed);
    stats->bytes_read.fetch_add(physical, std::memory_order_relaxed);
  }
  if (ok) {
    uint32_t expected = DecodeFixed32(buffer->data() + entry.size);
    buffer->resize(entry.size);
    if (Crc32c(*buffer) != expected) {
      // Served as "block unreadable" (callers skip or stop), never as
      // garbage entries.
      if (stats != nullptr) {
        stats->block_crc_errors.fetch_add(1, std::memory_order_relaxed);
        stats->SetLastError("sst: block crc mismatch in " + path_);
      }
      return false;
    }
  }
  return ok;
}

std::shared_ptr<const CachedBlock> TableReader::ReadBlock(
    size_t index_pos, LsmStats* stats) const {
  auto block = std::make_shared<CachedBlock>();
  if (!ReadBlockAt(index_pos, &block->raw, stats) ||
      !ParseBlock(block->raw, &block->offsets)) {
    return nullptr;
  }
  return block;
}

std::shared_ptr<const CachedBlock> TableReader::GetBlock(
    size_t index_pos, LsmStats* stats) const {
  if (cache_ != nullptr) {
    auto cached = cache_->Lookup(table_id_, index_pos);
    if (cached != nullptr) {
      if (stats != nullptr) {
        stats->block_cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return cached;
    }
    if (stats != nullptr) {
      stats->block_cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  auto block = ReadBlock(index_pos, stats);
  if (block != nullptr && cache_ != nullptr) {
    cache_->Insert(table_id_, index_pos, block);
  }
  return block;
}

int64_t TableReader::FindBlock(uint64_t key) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const IndexEntry& e, uint64_t k) { return e.last_key < k; });
  if (it == index_.end()) return -1;
  return static_cast<int64_t>(it - index_.begin());
}

Lookup TableReader::Find(uint64_t key, std::string* value, ProbeTally* tally,
                         LsmStats* stats) const {
  const bool filtered = filter_ != nullptr;
  if (filtered) {
    const bool may_match = filter_->MayContain(key);
    ++tally->probes;
    if (!may_match) {
      // Filters have no false negatives: a rejection is a definite
      // true negative.
      ++tally->negatives;
      pt_neg_.fetch_add(1, std::memory_order_relaxed);
      return Lookup::kMiss;
    }
    pt_allowed_.fetch_add(1, std::memory_order_relaxed);
  }
  // The filter said "maybe"; if the data blocks now say "no", that
  // probe was a false positive. I/O errors (block == nullptr) get no
  // attribution — the outcome is unknown, not a model miss. A
  // tombstone hit is a CONFIRMED answer (the key is in the table),
  // never a false positive.
  auto false_positive = [&] {
    if (filtered) pt_false_.fetch_add(1, std::memory_order_relaxed);
  };
  int64_t block_idx = FindBlock(key);
  if (block_idx < 0) {
    false_positive();
    return Lookup::kMiss;
  }
  auto block = GetBlock(static_cast<size_t>(block_idx), stats);
  if (block == nullptr) return Lookup::kMiss;
  const size_t i = block->LowerBound(key);
  if (i == block->size() || block->key(i) != key) {
    false_positive();
    return Lookup::kMiss;
  }
  if (block->tombstone(i)) return Lookup::kTombstone;
  if (value != nullptr) value->assign(block->value(i));
  return Lookup::kHit;
}

size_t TableReader::MultiGet(std::span<const uint64_t> keys, Lookup* states,
                             std::string* values, LsmStats* stats) const {
  size_t resolved = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (states[i] != Lookup::kMiss) continue;
    states[i] = Find(keys[i], values != nullptr ? &values[i] : nullptr, stats);
    if (states[i] != Lookup::kMiss) ++resolved;
  }
  return resolved;
}

void TableReader::RangeMultiProbe(std::span<const uint64_t> los,
                                  std::span<const uint64_t> his,
                                  bool* may_match, LsmStats* stats) const {
  assert(los.size() == his.size());
  size_t probes = 0;
  size_t negatives = 0;
  for (size_t i = 0; i < los.size(); ++i) {
    // A range that misses [min_key, max_key] holds none of this table's
    // keys: no probe, no count, as Db::GetFrom skips keys outside it.
    if (his[i] < min_key_ || los[i] > max_key_) {
      may_match[i] = false;
    } else if (filter_ == nullptr) {
      may_match[i] = true;
    } else {
      ++probes;
      may_match[i] = filter_->MayContainRange(std::max(los[i], min_key_),
                                              std::min(his[i], max_key_));
      if (!may_match[i]) ++negatives;
    }
  }
  if (probes == 0) return;
  rg_neg_.fetch_add(negatives, std::memory_order_relaxed);
  rg_allowed_.fetch_add(probes - negatives, std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->filter_probes.fetch_add(probes, std::memory_order_relaxed);
    stats->filter_negatives.fetch_add(negatives, std::memory_order_relaxed);
  }
}

void TableReader::AccountRangeOutcome(bool any_rows) const {
  if (filter_ != nullptr && !any_rows) {
    rg_false_.fetch_add(1, std::memory_order_relaxed);
  }
}

TableReader::Iterator::Iterator(const TableReader& table, ReadMode mode,
                                LsmStats* stats, uint64_t start_key)
    : table_(table), mode_(mode), stats_(stats) {
  const int64_t block = table.FindBlock(start_key);
  if (block < 0) {
    LoadBlock(table.index_.size());  // every key < start_key: end state
    return;
  }
  LoadBlock(static_cast<size_t>(block));
  // FindBlock guarantees this block's last key >= start_key, so the
  // target position is inside it (when the block loaded at all).
  if (block_ != nullptr) pos_ = block_->LowerBound(start_key);
}

void TableReader::Iterator::LoadBlock(size_t block_idx) {
  block_.reset();
  block_idx_ = block_idx;
  pos_ = 0;
  if (block_idx >= table_.index_.size()) return;  // end of table
  block_ = mode_ == ReadMode::kCached ? table_.GetBlock(block_idx, stats_)
                                      : table_.ReadBlock(block_idx, stats_);
  if (block_ == nullptr) ok_ = false;
}

void TableReader::Iterator::Next() {
  if (!Valid()) return;
  if (++pos_ >= block_->size()) LoadBlock(block_idx_ + 1);
}

void TableReader::ScanBlocks(uint64_t lo, uint64_t hi, size_t limit,
                             std::vector<ScanEntry>* out,
                             LsmStats* stats) const {
  for (Iterator it(*this, ReadMode::kCached, stats, lo);
       it.Valid() && it.key() <= hi; it.Next()) {
    if (out == nullptr) continue;
    if (out->size() >= limit) return;
    out->push_back({it.key(), std::string(it.value()), it.tombstone()});
  }
}

}  // namespace bloomrf
