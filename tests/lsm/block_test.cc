#include "lsm/block.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "lsm/block_cache.h"
#include "lsm/table_builder.h"
#include "lsm/table_reader.h"
#include "util/coding.h"

namespace bloomrf {
namespace {

/// The block as the read path holds it: its bytes plus ParseBlock's
/// offsets.
CachedBlock Parsed(std::string data) {
  CachedBlock block;
  block.raw = std::move(data);
  EXPECT_TRUE(ParseBlock(block.raw, &block.offsets));
  return block;
}

TEST(BlockTest, RoundTrip) {
  BlockBuilder builder;
  builder.Add(1, "one");
  builder.Add(2, "");
  builder.Add(7, "", /*tombstone=*/true);
  builder.Add(300, std::string(1000, 'x'));
  EXPECT_EQ(builder.NumEntries(), 4u);
  EXPECT_EQ(builder.last_key(), 300u);

  const CachedBlock block = Parsed(builder.Finish());
  // Each entry starts after the previous one's 12-byte header and value.
  EXPECT_EQ(block.offsets, (std::vector<uint32_t>{0, 15, 27, 39}));
  EXPECT_EQ(block.offsets.capacity(), block.offsets.size());
  ASSERT_EQ(block.size(), 4u);
  EXPECT_EQ(block.key(0), 1u);
  EXPECT_EQ(block.value(0), "one");
  EXPECT_FALSE(block.tombstone(0));
  EXPECT_EQ(block.key(1), 2u);
  EXPECT_EQ(block.value(1), "");
  EXPECT_FALSE(block.tombstone(1));
  EXPECT_EQ(block.key(2), 7u);
  EXPECT_EQ(block.value(2), "");
  EXPECT_TRUE(block.tombstone(2));
  EXPECT_EQ(block.key(3), 300u);
  EXPECT_EQ(block.value(3), std::string(1000, 'x'));
  EXPECT_FALSE(block.tombstone(3));
}

TEST(BlockTest, LowerBoundFindsFirstKeyNotBelow) {
  BlockBuilder builder;
  for (uint64_t k = 10; k <= 50; k += 10) builder.Add(k, "v");
  const CachedBlock block = Parsed(builder.Finish());
  EXPECT_EQ(block.LowerBound(0), 0u);
  EXPECT_EQ(block.LowerBound(10), 0u);
  EXPECT_EQ(block.LowerBound(11), 1u);
  EXPECT_EQ(block.LowerBound(50), 4u);
  EXPECT_EQ(block.LowerBound(51), 5u);
  EXPECT_EQ(block.LowerBound(UINT64_MAX), 5u);
  EXPECT_EQ(Parsed("").LowerBound(1), 0u);
}

TEST(BlockTest, FinishResets) {
  BlockBuilder builder;
  builder.Add(1, "a");
  builder.Finish();
  EXPECT_TRUE(builder.empty());
  EXPECT_EQ(builder.SizeBytes(), 0u);
}

TEST(BlockTest, ParseRejectsCorruption) {
  std::vector<uint32_t> offsets{99};
  EXPECT_FALSE(ParseBlock("tooshort", &offsets));
  EXPECT_TRUE(offsets.empty());
  BlockBuilder builder;
  builder.Add(1, "value");
  builder.Add(2, "value");
  std::string data = builder.Finish();
  // A truncated value, then a truncated header of a second entry.
  EXPECT_FALSE(ParseBlock(std::string_view(data).substr(0, data.size() - 2),
                          &offsets));
  EXPECT_FALSE(ParseBlock(std::string_view(data).substr(0, 17 + 5),
                          &offsets));
  EXPECT_TRUE(offsets.empty());
}

TEST(BlockTest, ParseRejectsTombstoneWithValue) {
  std::string data;
  PutFixed64(&data, 1);
  PutFixed32(&data, BlockBuilder::kTombstoneBit | 3);
  data += "abc";
  std::vector<uint32_t> offsets;
  EXPECT_FALSE(ParseBlock(data, &offsets));
  EXPECT_TRUE(offsets.empty());
  // The same entry without the tombstone bit is a live value.
  data[8 + 3] = 0;
  ASSERT_TRUE(ParseBlock(data, &offsets));
  EXPECT_EQ(offsets, std::vector<uint32_t>{0});
}

TEST(BlockTest, EmptyBlockParses) {
  std::vector<uint32_t> offsets;
  EXPECT_TRUE(ParseBlock("", &offsets));
  EXPECT_TRUE(offsets.empty());
}

// Find and the cached Iterator read entries in place through the
// offsets: empty values, tombstones and a value longer than a header
// sit side by side in one block.
TEST(BlockTest, TableReaderReadsMixedEntriesInPlace) {
  const std::string dir = "/tmp/bloomrf_block_test_mixed";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string big(1000, 'b');
  {
    TableBuilder builder(nullptr, 4096);
    builder.Add(10, "");
    builder.Add(20, "", /*tombstone=*/true);
    builder.Add(30, big);
    builder.Add(40, "x");
    builder.Add(50, "", /*tombstone=*/true);
    builder.Add(60, "");
    ASSERT_TRUE(builder.WriteTo(dir + "/t.sst", nullptr));
  }
  auto cache = std::make_shared<BlockCache>(1 << 20);
  LsmStats stats;
  auto reader = TableReader::Open(dir + "/t.sst", nullptr, &stats, cache);
  ASSERT_NE(reader, nullptr);

  std::string value = "stale";
  EXPECT_EQ(reader->Find(10, &value, &stats), Lookup::kHit);
  EXPECT_EQ(value, "");
  EXPECT_EQ(reader->Find(20, &value, &stats), Lookup::kTombstone);
  EXPECT_EQ(reader->Find(30, &value, &stats), Lookup::kHit);
  EXPECT_EQ(value, big);
  EXPECT_EQ(reader->Find(40, &value, &stats), Lookup::kHit);
  EXPECT_EQ(value, "x");
  EXPECT_EQ(reader->Find(50, &value, &stats), Lookup::kTombstone);
  EXPECT_EQ(reader->Find(60, &value, &stats), Lookup::kHit);
  EXPECT_EQ(value, "");
  for (uint64_t absent : {0, 15, 35, 61}) {
    EXPECT_EQ(reader->Find(absent, &value, &stats), Lookup::kMiss) << absent;
  }
  EXPECT_EQ(stats.blocks_read, 1u);  // one block, then cache hits

  struct Row {
    uint64_t key;
    std::string value;
    bool tombstone;
    bool operator==(const Row&) const = default;
  };
  const std::vector<Row> all = {{10, "", false}, {20, "", true},
                                {30, big, false}, {40, "x", false},
                                {50, "", true},  {60, "", false}};
  for (uint64_t start : {0, 10, 25, 50, 61}) {
    std::vector<Row> rows;
    TableReader::Iterator it(*reader, TableReader::ReadMode::kCached, &stats,
                             start);
    for (; it.Valid(); it.Next()) {
      rows.push_back({it.key(), std::string(it.value()), it.tombstone()});
    }
    EXPECT_TRUE(it.ok());
    std::vector<Row> expected;
    for (const Row& row : all) {
      if (row.key >= start) expected.push_back(row);
    }
    EXPECT_EQ(rows, expected) << "start " << start;
  }
  EXPECT_EQ(stats.blocks_read, 1u);
  reader.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bloomrf
