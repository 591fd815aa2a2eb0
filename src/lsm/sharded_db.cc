#include "lsm/sharded_db.h"

#include <algorithm>
#include <filesystem>

namespace bloomrf {

ShardedDb::ShardedDb(ShardedDbOptions options) : options_(std::move(options)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  // <dir>/SHARDS records the routing, "mix64 <count>": a key lives on
  // shard Mix64(key) % count, so the recorded count wins. A store
  // without a readable record (new, or older than the record) records
  // the requested count before any shard opens. No store runs more than
  // a few thousand shards (one pool thread each): a larger count is
  // not trusted.
  const std::string record = options_.dir + "/SHARDS";
  const uint64_t recorded = ReadNumberRecord(record, "mix64 ");
  if (recorded > 0 && recorded <= 4096) {
    options_.num_shards = recorded;
  } else {
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    WriteFileAtomically(
        options_.env != nullptr ? options_.env : Env::Default(), options_.dir,
        record, "mix64 " + std::to_string(options_.num_shards) + "\n");
  }
  if (options_.block_cache == nullptr && options_.block_cache_bytes > 0) {
    options_.block_cache =
        std::make_shared<BlockCache>(options_.block_cache_bytes);
  }
  if (options_.compaction_pool == nullptr) {
    // Sized for a single shard's fan-out (see Db::Db): per-shard
    // private pools would oversubscribe the host num_shards-fold.
    options_.compaction_pool =
        std::make_shared<ThreadPool>(SubcompactionFanOut(options_) - 1);
  }
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    DbOptions shard_options = options_;  // the DbOptions part
    const std::string suffix = "/shard-" + std::to_string(i);
    shard_options.dir += suffix;
    if (!shard_options.wal_dir.empty()) shard_options.wal_dir += suffix;
    shards_.push_back(std::make_unique<Db>(std::move(shard_options)));
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_shards);
}

bool ShardedDb::ForEachShard(const std::function<bool(size_t)>& fn) {
  std::vector<char> ok(shards_.size(), 1);
  TaskGroup group(pool_.get());
  for (size_t s = 0; s < shards_.size(); ++s) {
    group.Submit([&fn, &ok, s] { ok[s] = fn(s) ? 1 : 0; });
  }
  group.Wait();
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

bool ShardedDb::WriteBatch(std::span<const WriteOp> ops) {
  if (ops.empty()) return true;
  if (shards_.size() == 1) return shards_[0]->WriteBatch(ops);

  // Partition per shard, keeping op order within a shard (the value
  // views point into the caller's batch for the whole call). A shard
  // with no ops returns true without writing.
  std::vector<std::vector<WriteOp>> sub(shards_.size());
  for (const WriteOp& op : ops) sub[shard_of(op.key)].push_back(op);
  return ForEachShard(
      [this, &sub](size_t s) { return shards_[s]->WriteBatch(sub[s]); });
}

std::vector<std::optional<std::string>> ShardedDb::MultiGet(
    std::span<const uint64_t> keys) {
  std::vector<std::optional<std::string>> result(keys.size());
  if (keys.empty()) return result;
  if (shards_.size() == 1) return shards_[0]->MultiGet(keys);

  // Partition input positions per shard, keeping original order within
  // a shard so the scatter below is a linear walk.
  std::vector<std::vector<uint32_t>> idx(shards_.size());
  std::vector<std::vector<uint64_t>> sub(shards_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t s = shard_of(keys[i]);
    idx[s].push_back(static_cast<uint32_t>(i));
    sub[s].push_back(keys[i]);
  }

  TaskGroup group(pool_.get());
  std::vector<std::vector<std::optional<std::string>>> answers(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (sub[s].empty()) continue;
    group.Submit([this, s, &sub, &answers] {
      answers[s] = shards_[s]->MultiGet(sub[s]);
    });
  }
  group.Wait();

  for (size_t s = 0; s < shards_.size(); ++s) {
    for (size_t j = 0; j < idx[s].size(); ++j) {
      result[idx[s][j]] = std::move(answers[s][j]);
    }
  }
  return result;
}

std::vector<std::pair<uint64_t, std::string>> ShardedDb::RangeScan(
    uint64_t lo, uint64_t hi, size_t limit) {
  auto batches = ScanRange({&lo, 1}, {&hi, 1}, limit);
  return std::move(batches[0]);
}

std::vector<std::vector<std::pair<uint64_t, std::string>>>
ShardedDb::ScanRange(std::span<const uint64_t> los,
                     std::span<const uint64_t> his, size_t limit) {
  if (los.size() != his.size()) return {};
  const size_t n = los.size();
  std::vector<std::vector<std::pair<uint64_t, std::string>>> results(n);
  if (n == 0) return results;
  if (shards_.size() == 1) return shards_[0]->ScanRange(los, his, limit);

  TaskGroup group(pool_.get());
  std::vector<std::vector<std::vector<std::pair<uint64_t, std::string>>>>
      per_shard(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    group.Submit([this, s, los, his, limit, &per_shard] {
      per_shard[s] = shards_[s]->ScanRange(los, his, limit);
    });
  }
  group.Wait();

  // Shards own disjoint key sets, so the per-range merge is a plain
  // sort of the concatenated rows. Each shard returned its own lowest
  // `limit` rows, so the union's lowest `limit` rows are all present.
  for (size_t i = 0; i < n; ++i) {
    auto& out = results[i];
    size_t total = 0;
    for (size_t s = 0; s < shards_.size(); ++s) total += per_shard[s][i].size();
    out.reserve(total);  // all rows are inserted before the sort+cut
    for (size_t s = 0; s < shards_.size(); ++s) {
      auto& rows = per_shard[s][i];
      out.insert(out.end(), std::make_move_iterator(rows.begin()),
                 std::make_move_iterator(rows.end()));
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (out.size() > limit) out.resize(limit);
  }
  return results;
}

bool ShardedDb::Flush() {
  // Each shard's Flush waits for its own background write, so running
  // them on the pool overlaps the SST I/O.
  return ForEachShard([this](size_t s) { return shards_[s]->Flush(); });
}

bool ShardedDb::WaitForFlush() {
  bool ok = true;
  for (auto& shard : shards_) ok &= shard->WaitForFlush();
  return ok;
}

bool ShardedDb::WaitForCompaction() {
  bool ok = true;
  for (auto& shard : shards_) ok &= shard->WaitForCompaction();
  return ok;
}

bool ShardedDb::CompactRange(uint64_t begin, uint64_t end) {
  // Hash routing scatters every key range over all shards, so the
  // range compacts everywhere — each shard trims it to its own files
  // via the whole-file expansion in Db::CompactRange.
  return ForEachShard([this, begin, end](size_t s) {
    return shards_[s]->CompactRange(begin, end);
  });
}

LsmStats ShardedDb::TotalStats() const {
  LsmStats total;
  for (const auto& shard : shards_) total.Accumulate(shard->stats());
  return total;
}

void ShardedDb::ResetStats() {
  for (auto& shard : shards_) shard->ResetStats();
}

size_t ShardedDb::num_tables() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_tables();
  return total;
}

uint64_t ShardedDb::filter_memory_bits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->filter_memory_bits();
  return total;
}

}  // namespace bloomrf
