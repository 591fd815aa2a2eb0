// Unit tests of the shared LRU block cache: hit/miss accounting, LRU
// ordering, capacity-driven eviction, replacement, and erasing a
// table's blocks; then readers of a Db racing the compactions that
// retire the tables, and so erase the blocks, they read.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/db.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

std::shared_ptr<const CachedBlock> MakeBlock(size_t raw_bytes) {
  auto block = std::make_shared<CachedBlock>();
  block->raw.assign(raw_bytes, 'x');
  return block;
}

TEST(BlockCacheTest, MissThenHit) {
  BlockCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  auto block = MakeBlock(100);
  cache.Insert(1, 0, block);
  auto found = cache.Lookup(1, 0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found.get(), block.get());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BlockCacheTest, KeysAreNamespacedByTable) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 7, MakeBlock(10));
  EXPECT_EQ(cache.Lookup(2, 7), nullptr);
  EXPECT_EQ(cache.Lookup(7, 1), nullptr);
  EXPECT_NE(cache.Lookup(1, 7), nullptr);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  // Three ~4 KiB blocks in a cache that holds only two.
  BlockCache cache(10 << 10);
  cache.Insert(1, 0, MakeBlock(4 << 10));
  cache.Insert(1, 1, MakeBlock(4 << 10));
  ASSERT_NE(cache.Lookup(1, 0), nullptr);  // touch 0: 1 becomes LRU
  cache.Insert(1, 2, MakeBlock(4 << 10));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
}

TEST(BlockCacheTest, NeverEvictsTheOnlyBlock) {
  // A block bigger than the whole budget stays resident (evicting it
  // would make the cache useless rather than small).
  BlockCache cache(64);
  cache.Insert(1, 0, MakeBlock(4 << 10));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  // A second oversized block replaces it as the sole resident.
  cache.Insert(1, 1, MakeBlock(4 << 10));
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(1, 1), nullptr);
}

TEST(BlockCacheTest, ReplaceUpdatesCharge) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, MakeBlock(1000));
  size_t charge_small = cache.charge_bytes();
  cache.Insert(1, 0, MakeBlock(10000));
  EXPECT_GT(cache.charge_bytes(), charge_small);
  auto found = cache.Lookup(1, 0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->raw.size(), 10000u);
}

TEST(BlockCacheTest, EvictedBlockSurvivesViaSharedPtr) {
  BlockCache cache(1 << 10);
  auto pinned = MakeBlock(512);
  cache.Insert(1, 0, pinned);
  cache.Insert(1, 1, MakeBlock(2 << 10));  // evicts block 0
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(pinned->raw.size(), 512u);  // still valid for the holder
}

TEST(BlockCacheTest, ChargeCountsBytesAndOffsets) {
  auto block = std::make_shared<CachedBlock>();
  block->raw.assign(4000, 'x');
  block->offsets.assign(50, 0);
  block->offsets.shrink_to_fit();
  EXPECT_EQ(block->ChargeBytes(), 4000 + 50 * 4 + sizeof(CachedBlock));
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, block);
  EXPECT_EQ(cache.charge_bytes(), block->ChargeBytes());
}

TEST(BlockCacheTest, EraseTableDropsOnlyThatTable) {
  BlockCache cache(1 << 20);
  for (uint64_t idx = 0; idx < 4; ++idx) cache.Insert(1, idx, MakeBlock(100));
  for (uint64_t idx = 0; idx < 3; ++idx) cache.Insert(2, idx, MakeBlock(300));
  ASSERT_NE(cache.Lookup(1, 2), nullptr);
  ASSERT_EQ(cache.Lookup(3, 0), nullptr);
  const size_t table1_charge = 4 * MakeBlock(100)->ChargeBytes();
  const size_t before = cache.charge_bytes();
  const uint64_t hits = cache.hits();
  const uint64_t misses = cache.misses();
  const uint64_t evictions = cache.evictions();

  cache.EraseTable(1, 4);
  EXPECT_EQ(cache.charge_bytes(), before - table1_charge);
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.evictions(), evictions);

  for (uint64_t idx = 0; idx < 4; ++idx) {
    EXPECT_EQ(cache.Lookup(1, idx), nullptr) << idx;
  }
  for (uint64_t idx = 0; idx < 3; ++idx) {
    EXPECT_NE(cache.Lookup(2, idx), nullptr) << idx;
  }
  cache.EraseTable(2, 3);
  EXPECT_EQ(cache.charge_bytes(), 0u);
  cache.EraseTable(2, 3);  // nothing left: a no-op
  EXPECT_EQ(cache.charge_bytes(), 0u);
}

TEST(BlockCacheTest, EraseTableStopsAtNumBlocks) {
  BlockCache cache(1 << 20);
  for (uint64_t idx = 0; idx < 3; ++idx) cache.Insert(1, idx, MakeBlock(100));
  cache.EraseTable(1, 2);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
  EXPECT_EQ(cache.charge_bytes(), MakeBlock(100)->ChargeBytes());
}

TEST(BlockCacheTest, ErasedBlockSurvivesViaSharedPtr) {
  BlockCache cache(1 << 20);
  auto block = std::make_shared<CachedBlock>();
  BlockBuilder builder;
  builder.Add(5, "five");
  block->raw = builder.Finish();
  ASSERT_TRUE(ParseBlock(block->raw, &block->offsets));
  cache.Insert(1, 0, block);
  std::shared_ptr<const CachedBlock> held = cache.Lookup(1, 0);
  block.reset();
  cache.EraseTable(1, 1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.charge_bytes(), 0u);
  ASSERT_EQ(held->size(), 1u);  // still valid for the holder
  EXPECT_EQ(held->key(0), 5u);
  EXPECT_EQ(held->value(0), "five");
}

TEST(BlockCacheTest, NullInsertIsIgnored) {
  BlockCache cache(1 << 10);
  cache.Insert(1, 0, nullptr);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.charge_bytes(), 0u);
}

// Get, MultiGet and ScanRange threads read while background compaction
// retires the tables they read. Each call holds its Version to the end,
// so a reader can drop the last reference to a retired table and run
// the destructor that erases its blocks, while other readers fill the
// cache from live tables. Every round rewrites each live key with its
// one value and deletes the deleted keys again, so every answer is
// fixed whatever the interleaving.
TEST(BlockCacheDbTest, ReadersRacingTableRetirementMatchReference) {
  const std::string dir = "/tmp/bloomrf_block_cache_test_race";
  std::filesystem::remove_all(dir);
  auto cache = std::make_shared<BlockCache>(128 << 10);
  DbOptions options;
  options.dir = dir;
  options.filter_policy = NewBloomPolicy(10.0);
  options.block_cache = cache;
  options.block_size = 1024;
  options.memtable_bytes = 16 << 10;
  options.compaction = true;
  options.l0_compaction_trigger = 2;
  options.level_base_bytes = 32 << 10;
  options.level_size_multiplier = 2;
  options.max_levels = 4;

  // Written keys are 8i + 3, every fifth one deleted; readers also ask
  // for keys between them, which are never written.
  constexpr uint64_t kSlots = 3000;
  auto written = [](uint64_t i) { return 8 * i + 3; };
  auto deleted = [](uint64_t key) { return (key - 3) / 8 % 5 == 0; };
  auto expected = [&](uint64_t key) -> std::optional<std::string> {
    if (key % 8 != 3 || key >= written(kSlots) || deleted(key)) {
      return std::nullopt;
    }
    return MakeValue(key, 24);
  };
  // Only the first round, which runs before the readers start, writes
  // the keys it deletes: a later Put of a deleted key would make it
  // live until its Delete.
  auto write_round = [&](Db& db, bool first) {
    for (uint64_t i = 0; i < kSlots; ++i) {
      const uint64_t key = written(i);
      if (deleted(key)) {
        if (first && !db.Put(key, MakeValue(key, 24))) return false;
        if (!db.Delete(key)) return false;
      } else if (!db.Put(key, MakeValue(key, 24))) {
        return false;
      }
    }
    return true;
  };

  {
    Db db(options);
    ASSERT_TRUE(write_round(db, /*first=*/true));
    ASSERT_TRUE(db.Flush());
    ASSERT_TRUE(db.WaitForCompaction());
    const uint64_t compactions_before = db.stats().compactions.load();

    std::atomic<bool> done{false};
    std::atomic<uint64_t> calls{0};
    auto random_key = [](Rng& rng) { return rng.Uniform(8 * kSlots + 16); };
    std::vector<std::thread> readers;
    readers.emplace_back([&] {
      Rng rng(1);
      std::string value;
      while (!done.load()) {
        const uint64_t key = random_key(rng);
        const std::optional<std::string> want = expected(key);
        const bool found = db.Get(key, &value);
        if (found != want.has_value() || (found && value != *want)) {
          ADD_FAILURE() << "Get(" << key << ")";
          return;
        }
        calls.fetch_add(1);
      }
    });
    readers.emplace_back([&] {
      Rng rng(2);
      std::vector<uint64_t> keys(32);
      while (!done.load()) {
        for (uint64_t& key : keys) key = random_key(rng);
        const auto got = db.MultiGet(keys);
        for (size_t i = 0; i < keys.size(); ++i) {
          if (got[i] != expected(keys[i])) {
            ADD_FAILURE() << "MultiGet key " << keys[i];
            return;
          }
        }
        calls.fetch_add(1);
      }
    });
    readers.emplace_back([&] {
      Rng rng(3);
      std::vector<uint64_t> los(16), his(16);
      while (!done.load()) {
        for (size_t i = 0; i < los.size(); ++i) {
          los[i] = random_key(rng);
          his[i] = los[i] + rng.Uniform(400);
        }
        const auto got = db.ScanRange(los, his);
        for (size_t i = 0; i < los.size(); ++i) {
          std::vector<std::pair<uint64_t, std::string>> want;
          for (uint64_t key = los[i]; key <= his[i]; ++key) {
            if (auto value = expected(key)) want.emplace_back(key, *value);
          }
          if (got.size() != los.size() || got[i] != want) {
            ADD_FAILURE() << "ScanRange [" << los[i] << ", " << his[i] << "]";
            return;
          }
        }
        calls.fetch_add(1);
      }
    });

    bool wrote = true;
    for (int round = 0; round < 6 && wrote; ++round) {
      wrote = write_round(db, /*first=*/false);
    }
    const bool drained = db.Flush() && db.WaitForCompaction();
    done.store(true);
    for (std::thread& reader : readers) reader.join();
    ASSERT_TRUE(wrote);
    ASSERT_TRUE(drained);
    EXPECT_GT(db.stats().compactions.load(), compactions_before);
    EXPECT_GT(calls.load(), 0u);
    EXPECT_GT(cache->charge_bytes(), 0u);
  }
  // Every table is gone, and with it every block it cached.
  EXPECT_EQ(cache->charge_bytes(), 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bloomrf
