// MergingIterator: newest-wins over overlapping memtable and table
// sources, Seek and the upper bound, empty sources, a memtable cursor
// racing a writer, and a table source that hits an unreadable block.

#include "lsm/merging_iterator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "lsm/table_builder.h"

namespace bloomrf {
namespace {

using Rows = std::vector<std::tuple<uint64_t, std::string, bool>>;
using TableRows = std::map<uint64_t, std::pair<std::string, bool>>;

constexpr auto kCached = TableReader::ReadMode::kCached;
constexpr auto kBypassCache = TableReader::ReadMode::kBypassCache;

/// (key, value, tombstone) of every row from the current position on.
Rows Drain(MergingIterator* it) {
  Rows rows;
  for (; it->Valid(); it->Next()) {
    rows.emplace_back(it->key(), std::string(it->value()), it->tombstone());
  }
  return rows;
}

class MergingIteratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_merging_iterator_test_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `rows` (key -> value, tombstone) as an SST and opens it.
  std::unique_ptr<TableReader> MakeTable(const std::string& name,
                                         const TableRows& rows,
                                         size_t block_size = 4096) {
    TableBuilder builder(nullptr, block_size);
    for (const auto& [key, row] : rows) builder.Add(key, row.first, row.second);
    EXPECT_TRUE(builder.WriteTo(dir_ + "/" + name, nullptr));
    return TableReader::Open(dir_ + "/" + name, nullptr, &stats_, cache_);
  }

  std::string dir_;
  LsmStats stats_;
  std::shared_ptr<BlockCache> cache_ = std::make_shared<BlockCache>(1 << 20);
};

TEST_F(MergingIteratorTest, NewestSourceWinsEachKey) {
  // Four overlapping sources, newest first: two memtables, then two
  // tables (one read through the cache, one bypassing it).
  MemTable newest, older;
  newest.Put(5, "m0-5");
  newest.Delete(7);
  newest.Put(20, "m0-20");
  older.Put(5, "m1-5");
  older.Put(7, "m1-7");
  older.Put(9, "m1-9");
  older.Delete(11);
  auto t2 = MakeTable("t2.sst", {{5, {"t2-5", false}},
                                 {9, {"t2-9", false}},
                                 {11, {"t2-11", false}},
                                 {13, {"", true}},
                                 {30, {"t2-30", false}}});
  auto t3 = MakeTable("t3.sst", {{1, {"t3-1", false}},
                                 {13, {"t3-13", false}},
                                 {20, {"t3-20", false}},
                                 {30, {"t3-30", false}}});
  ASSERT_NE(t2, nullptr);
  ASSERT_NE(t3, nullptr);

  MergingIterator it;
  it.AddMemTable(newest);
  it.AddMemTable(older);
  it.AddTable(*t2, kCached, &stats_);
  it.AddTable(*t3, kBypassCache, &stats_);
  it.Seek(0);
  EXPECT_EQ(Drain(&it), (Rows{{1, "t3-1", false},
                              {5, "m0-5", false},
                              {7, "", true},
                              {9, "m1-9", false},
                              {11, "", true},
                              {13, "", true},
                              {20, "m0-20", false},
                              {30, "t2-30", false}}));
  EXPECT_TRUE(it.ok());
}

TEST_F(MergingIteratorTest, SeekIntoTheMiddleAndPastTheEnd) {
  // Even keys in a memtable (newer), multiples of 3 in a table whose
  // 64-byte blocks hold a few entries each, so seeks land mid-table.
  MemTable mem;
  TableRows table_rows;
  for (uint64_t k = 0; k < 100; ++k) {
    if (k % 2 == 0) mem.Put(k, "m" + std::to_string(k));
    if (k % 3 == 0) table_rows[k] = {"t" + std::to_string(k), false};
  }
  auto table = MakeTable("t.sst", table_rows, 64);
  ASSERT_NE(table, nullptr);
  auto expected = [&](uint64_t lo, uint64_t hi) {
    Rows rows;
    for (uint64_t k = lo; k <= hi && k < 100; ++k) {
      if (k % 2 == 0) {
        rows.emplace_back(k, "m" + std::to_string(k), false);
      } else if (k % 3 == 0) {
        rows.emplace_back(k, "t" + std::to_string(k), false);
      }
    }
    return rows;
  };

  MergingIterator bounded(60);
  bounded.AddMemTable(mem);
  bounded.AddTable(*table, kCached, &stats_);
  bounded.Seek(31);
  EXPECT_TRUE(bounded.SourceInRange(0));
  EXPECT_TRUE(bounded.SourceInRange(1));
  EXPECT_EQ(Drain(&bounded), expected(31, 60));
  // Seeking again (backwards, onto a key both sources hold) restarts
  // the merge; the newer memtable's version wins.
  bounded.Seek(30);
  ASSERT_TRUE(bounded.Valid());
  EXPECT_EQ(bounded.key(), 30u);
  EXPECT_EQ(bounded.value(), "m30");
  EXPECT_EQ(Drain(&bounded), expected(30, 60));
  bounded.Seek(61);  // past the bound
  EXPECT_FALSE(bounded.Valid());
  EXPECT_FALSE(bounded.SourceInRange(0));
  EXPECT_FALSE(bounded.SourceInRange(1));

  MergingIterator point(33);  // only the table holds a key in [33, 33]
  point.AddMemTable(mem);
  point.AddTable(*table, kCached, &stats_);
  point.Seek(33);
  EXPECT_FALSE(point.SourceInRange(0));
  EXPECT_TRUE(point.SourceInRange(1));
  EXPECT_EQ(Drain(&point), expected(33, 33));

  MergingIterator open;
  open.AddMemTable(mem);
  open.AddTable(*table, kBypassCache, &stats_);
  open.Seek(97);
  EXPECT_EQ(Drain(&open), expected(97, 99));
  open.Seek(100);  // past the end of every source
  EXPECT_FALSE(open.Valid());
  open.Seek(UINT64_MAX);
  EXPECT_FALSE(open.Valid());
  EXPECT_TRUE(open.ok());
}

TEST_F(MergingIteratorTest, EmptySourcesYieldNothing) {
  MemTable empty_mem;
  auto empty_table = MakeTable("empty.sst", {});
  ASSERT_NE(empty_table, nullptr);

  MergingIterator none;
  none.Seek(0);
  EXPECT_FALSE(none.Valid());
  EXPECT_TRUE(none.ok());

  MergingIterator all_empty;
  all_empty.AddMemTable(empty_mem);
  all_empty.AddTable(*empty_table, kCached, &stats_);
  all_empty.Seek(0);
  EXPECT_FALSE(all_empty.Valid());
  EXPECT_FALSE(all_empty.SourceInRange(0));
  EXPECT_FALSE(all_empty.SourceInRange(1));
  EXPECT_TRUE(all_empty.ok());

  // One populated source between empty ones.
  MemTable one;
  one.Put(42, "x");
  MergingIterator mixed;
  mixed.AddMemTable(empty_mem);
  mixed.AddMemTable(one);
  mixed.AddTable(*empty_table, kBypassCache, &stats_);
  mixed.Seek(0);
  EXPECT_EQ(Drain(&mixed), (Rows{{42, "x", false}}));
  EXPECT_TRUE(mixed.ok());
}

TEST_F(MergingIteratorTest, MemTableCursorRacesWriters) {
  // A cursor over a memtable that a writer is still filling sees keys
  // in strictly increasing order within its bound, each with one whole
  // value (every value is one repeated character), never a mix.
  MemTable mem;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t round = 0; round < 20; ++round) {
      for (uint64_t k = 0; k < 2000; ++k) {
        if ((k + round) % 7 == 0) {
          mem.Delete(k);
        } else {
          mem.Put(k, std::string(8 + (k + round) % 32,
                                 static_cast<char>('a' + round % 26)));
        }
      }
    }
    done = true;
  });
  size_t passes = 0, bad_rows = 0;
  while (!done.load() || passes < 3) {
    MergingIterator it(1500);
    it.AddMemTable(mem);
    it.Seek(100);
    uint64_t prev = 99;
    for (; it.Valid(); it.Next()) {
      const std::string_view v = it.value();
      if (it.key() <= prev || it.key() > 1500 ||
          (!it.tombstone() &&
           (v.size() < 8 || v.find_first_not_of(v[0]) != v.npos))) {
        ++bad_rows;
      }
      prev = it.key();
    }
    ++passes;
  }
  writer.join();
  EXPECT_EQ(bad_rows, 0u);
}

TEST_F(MergingIteratorTest, TableSourceEndsAtCorruptBlock) {
  // Keys 0..49 with one-byte values are 13-byte entries, so the 64-byte
  // block target cuts a block every 5 entries: 65 payload bytes plus a
  // 4-byte CRC. Byte 89 lies in block 1 (keys 5..9).
  TableRows rows;
  for (uint64_t k = 0; k < 50; ++k) rows[k] = {"t", false};
  auto table = MakeTable("bad.sst", rows, 64);
  ASSERT_NE(table, nullptr);
  {
    std::fstream f(dir_ + "/bad.sst",
                   std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(89);
    f.get(byte);
    f.seekp(89);
    f.put(static_cast<char>(byte ^ 0x5a));
  }
  MemTable mem;
  mem.Put(7, "m7");
  mem.Put(60, "m60");

  for (const auto mode : {kCached, kBypassCache}) {
    SCOPED_TRACE(mode == kCached ? "cached" : "bypass");
    // The table yields block 0 and then ends; the memtable goes on.
    MergingIterator it;
    it.AddMemTable(mem);
    it.AddTable(*table, mode, &stats_);
    it.Seek(0);
    EXPECT_TRUE(it.ok());
    EXPECT_EQ(Drain(&it), (Rows{{0, "t", false},
                                {1, "t", false},
                                {2, "t", false},
                                {3, "t", false},
                                {4, "t", false},
                                {7, "m7", false},
                                {60, "m60", false}}));
    EXPECT_FALSE(it.ok());

    // A seek that lands in the bad block fails at once.
    MergingIterator seek_bad;
    seek_bad.AddTable(*table, mode, &stats_);
    seek_bad.Seek(6);
    EXPECT_FALSE(seek_bad.Valid());
    EXPECT_FALSE(seek_bad.ok());
  }
  EXPECT_GT(stats_.block_crc_errors, 0u);
}

}  // namespace
}  // namespace bloomrf
