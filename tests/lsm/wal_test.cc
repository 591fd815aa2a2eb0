#include "lsm/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lsm/table_reader.h"  // LsmStats
#include "tests/test_util.h"
#include "util/random.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::DeleteOps;

/// One put record, built by the put entry point of the one encoder.
std::string PutRecord(uint64_t key, std::string_view value) {
  const KV kv{key, value};
  std::string record;
  WalEncodeRecordTo({&kv, 1}, &record);
  return record;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_wal_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/wal-1.log";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::pair<uint64_t, std::string>> Replay(
      WalReplayResult* result = nullptr) {
    std::vector<std::pair<uint64_t, std::string>> entries;
    WalReplayResult r = WalReplay(
        path_, [&](uint64_t key, std::string_view value, bool is_delete) {
          entries.emplace_back(key, is_delete ? "<del>" : std::string(value));
        });
    if (result != nullptr) *result = r;
    return entries;
  }

  struct Op {
    uint64_t key;
    std::string value;
    bool is_delete;
  };
  std::vector<Op> ReplayOps(WalReplayResult* result = nullptr) {
    std::vector<Op> ops;
    WalReplayResult r = WalReplay(
        path_, [&](uint64_t key, std::string_view value, bool is_delete) {
          ops.push_back({key, std::string(value), is_delete});
        });
    if (result != nullptr) *result = r;
    return ops;
  }

  void Truncate(uint64_t size) {
    std::filesystem::resize_file(path_, size);
  }

  void AppendRaw(std::string_view bytes) {
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
  std::string path_;
};

TEST_F(WalTest, RoundTripSingleRecords) {
  {
    WalWriter writer(path_, /*fsync_on_commit=*/false, nullptr);
    ASSERT_FALSE(writer.broken());
    for (uint64_t k = 0; k < 100; ++k) {
      std::string value = "value-" + std::to_string(k);
      ASSERT_TRUE(writer.Append(PutRecord(k, value)));
    }
    ASSERT_TRUE(writer.Sync());
  }
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 100u);
  EXPECT_EQ(result.entries, 100u);
  ASSERT_EQ(entries.size(), 100u);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(entries[k].first, k);
    EXPECT_EQ(entries[k].second, "value-" + std::to_string(k));
  }
}

TEST_F(WalTest, RoundTripBatchRecordIncludingEmptyValues) {
  std::vector<KV> batch = {
      {7, "seven"}, {8, ""}, {9, std::string_view("\0\xff\0", 3)}};
  {
    WalWriter writer(path_, false, nullptr);
    std::string record;
    WalEncodeRecordTo(batch, &record);
    ASSERT_TRUE(writer.Append(record));
    // The put entry point writes the engine's bytes for the same ops.
    std::vector<WriteOp> ops;
    for (const KV& kv : batch) ops.push_back({kv.key, kv.value, false});
    std::string ops_record;
    WalEncodeOpsTo(ops, &ops_record);
    EXPECT_EQ(record, ops_record);
  }
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 1u);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[1].second, "");
  EXPECT_EQ(entries[2].second, std::string("\0\xff\0", 3));
}

TEST_F(WalTest, RoundTripOpsBatchMixedPutsAndDeletes) {
  std::vector<WriteOp> ops = {{1, "one", false},
                              {2, std::string_view(), true},
                              {3, "", false},
                              {4, std::string_view(), true}};
  {
    WalWriter writer(path_, false, nullptr);
    std::string record;
    WalEncodeOpsTo(ops, &record);
    ASSERT_TRUE(writer.Append(record));
  }
  WalReplayResult result;
  auto replayed = ReplayOps(&result);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 1u);
  EXPECT_EQ(result.entries, 4u);
  ASSERT_EQ(replayed.size(), 4u);
  EXPECT_FALSE(replayed[0].is_delete);
  EXPECT_EQ(replayed[0].value, "one");
  EXPECT_TRUE(replayed[1].is_delete);
  EXPECT_TRUE(replayed[1].value.empty());
  EXPECT_FALSE(replayed[2].is_delete);  // empty put is not a delete
  EXPECT_TRUE(replayed[3].is_delete);
}

TEST_F(WalTest, RoundTripPureDeleteRecord) {
  std::vector<uint64_t> keys = {10, 20, 30};
  {
    WalWriter writer(path_, false, nullptr);
    std::string record;
    WalEncodeDeletesTo(keys, &record);
    ASSERT_TRUE(writer.Append(record));
    std::string ops_record;
    WalEncodeOpsTo(DeleteOps(keys), &ops_record);
    EXPECT_EQ(record, ops_record);
  }
  WalReplayResult result;
  auto replayed = ReplayOps(&result);
  EXPECT_TRUE(result.clean);
  ASSERT_EQ(replayed.size(), 3u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(replayed[i].key, keys[i]);
    EXPECT_TRUE(replayed[i].is_delete);
  }
}

TEST_F(WalTest, EveryTruncationPointIsSafeOverDeleteRecords) {
  // Same boundary fuzz as the put-record variant, over records that
  // interleave puts and deletes: any cut must replay an intact prefix
  // of WHOLE records (ops batches are all-or-nothing) and never
  // misparse a delete as a put or vice versa.
  const int kRecords = 4;
  const std::string put_value(7, 'p');  // outlives the WriteOp views
  {
    WalWriter writer(path_, false, nullptr);
    for (uint64_t k = 0; k < kRecords; ++k) {
      std::vector<WriteOp> ops = {{2 * k, put_value, false},
                                  {2 * k + 1, std::string_view(), true}};
      std::string record;
      WalEncodeOpsTo(ops, &record);
      ASSERT_TRUE(writer.Append(record));
    }
  }
  const uint64_t full = std::filesystem::file_size(path_);
  const uint64_t record = full / kRecords;
  std::string original;
  {
    std::ifstream f(path_, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
  }
  for (uint64_t cut = 0; cut <= full; ++cut) {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(original.data(), static_cast<std::streamsize>(cut));
    f.close();
    WalReplayResult result;
    auto ops = ReplayOps(&result);
    ASSERT_EQ(ops.size(), 2 * (cut / record)) << "cut at " << cut;
    EXPECT_EQ(result.clean, cut % record == 0) << "cut at " << cut;
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(ops[i].key, i);
      EXPECT_EQ(ops[i].is_delete, i % 2 == 1);
      if (!ops[i].is_delete) { EXPECT_EQ(ops[i].value, std::string(7, 'p')); }
    }
  }
}

TEST_F(WalTest, UnknownOpFlagBitsStopReplay) {
  // A structurally valid ops record whose flags byte uses an undefined
  // bit must stop replay (future format, not silently misread).
  std::string payload;
  payload.append("\x01\x00\x00\x00", 4);                  // count = 1
  payload.append("\x2a\x00\x00\x00\x00\x00\x00\x00", 8);  // key = 42
  payload.push_back(0x02);                                // unknown flag bit
  std::string record;
  AppendFramedRecord(/*type=*/3, payload, &record);
  AppendRaw(record);
  WalReplayResult result;
  auto replayed = ReplayOps(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_TRUE(replayed.empty());
}

TEST_F(WalTest, ImpossibleEntryCountStopsReplay) {
  // A CRC-valid ops record claiming 2^32-1 entries in a one-entry
  // payload: rejected by the count check (every entry is at least 9
  // bytes), never by an attempt to reserve that many entries.
  std::string payload;
  payload.append("\xff\xff\xff\xff", 4);                  // count
  payload.append("\x2a\x00\x00\x00\x00\x00\x00\x00", 8);  // key = 42
  payload.push_back(0x01);                                // delete
  std::string record;
  AppendFramedRecord(/*type=*/3, payload, &record);
  AppendRaw(record);
  WalReplayResult result;
  auto replayed = ReplayOps(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_TRUE(replayed.empty());
}

TEST_F(WalTest, RetiredPutRecordTypeStopsReplay) {
  // A CRC-valid record of the retired put-only type 1 ({key, vlen,
  // value} per entry, no flags byte) is an unknown type now: replay
  // applies none of it and stops there, so the intact ops record
  // behind it is not replayed either.
  std::string payload;
  payload.append("\x01\x00\x00\x00", 4);                  // count = 1
  payload.append("\x2a\x00\x00\x00\x00\x00\x00\x00", 8);  // key = 42
  payload.append("\x01\x00\x00\x00", 4);                  // value_len = 1
  payload.push_back('x');
  std::string record;
  AppendFramedRecord(/*type=*/1, payload, &record);
  AppendRaw(record);
  AppendRaw(PutRecord(7, "after"));
  WalReplayResult result;
  auto replayed = ReplayOps(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(result.records, 0u);
  EXPECT_TRUE(replayed.empty());
}

TEST_F(WalTest, MissingFileRepliesCleanEmpty) {
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.records, 0u);
  EXPECT_TRUE(entries.empty());
}

TEST_F(WalTest, TruncatedTailKeepsPrefix) {
  {
    WalWriter writer(path_, false, nullptr);
    for (uint64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(writer.Append(PutRecord(k, "0123456789abcdef")));
    }
  }
  const uint64_t full = std::filesystem::file_size(path_);
  const uint64_t record = full / 10;
  // Chop mid-way through the last record: a torn final write().
  Truncate(full - record / 2);
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(result.records, 9u);
  ASSERT_EQ(entries.size(), 9u);
  EXPECT_EQ(entries.back().first, 8u);
}

TEST_F(WalTest, EveryTruncationPointIsSafe) {
  // Fuzz the boundary: whatever byte the crash cut at, replay must
  // yield an intact prefix and never crash or misparse.
  {
    WalWriter writer(path_, false, nullptr);
    for (uint64_t k = 0; k < 4; ++k) {
      std::string value(7, static_cast<char>('a' + k));
      ASSERT_TRUE(writer.Append(PutRecord(k, value)));
    }
  }
  const uint64_t full = std::filesystem::file_size(path_);
  const uint64_t record = full / 4;
  std::string original;
  {
    std::ifstream f(path_, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
  }
  for (uint64_t cut = 0; cut <= full; ++cut) {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(original.data(), static_cast<std::streamsize>(cut));
    f.close();
    WalReplayResult result;
    auto entries = Replay(&result);
    EXPECT_EQ(entries.size(), cut / record) << "cut at " << cut;
    EXPECT_EQ(result.clean, cut % record == 0) << "cut at " << cut;
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].first, i);
      EXPECT_EQ(entries[i].second, std::string(7, static_cast<char>('a' + i)));
    }
  }
}

TEST_F(WalTest, CorruptByteStopsAtBadRecord) {
  {
    WalWriter writer(path_, false, nullptr);
    for (uint64_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(writer.Append(PutRecord(k, "payload-payload")));
    }
  }
  // Flip one payload byte inside the 4th record.
  const uint64_t record = std::filesystem::file_size(path_) / 5;
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(3 * record + record / 2));
    char byte;
    f.seekg(f.tellp());
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(static_cast<std::streamoff>(3 * record + record / 2));
    f.write(&byte, 1);
  }
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(entries.size(), 3u);  // everything before the corrupt record
}

TEST_F(WalTest, GarbageTailIsRejected) {
  {
    WalWriter writer(path_, false, nullptr);
    ASSERT_TRUE(writer.Append(PutRecord(1, "real")));
  }
  Rng rng(404);
  std::string garbage(256, '\0');
  for (char& c : garbage) c = static_cast<char>(rng.Next());
  AppendRaw(garbage);
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_FALSE(result.clean);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].second, "real");
}

TEST_F(WalTest, HugeLengthHeaderDoesNotAllocate) {
  // A garbage header claiming a gigabyte payload must be rejected by
  // the bounds check, not trusted.
  std::string header;
  header.append("\x00\x00\x00\x00", 4);      // crc (wrong, unchecked first)
  header.append("\xff\xff\xff\x7f", 4);      // length ~2GB
  header.push_back(3);                       // valid type
  AppendRaw(header);
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_FALSE(result.clean);
  EXPECT_TRUE(entries.empty());
}

TEST_F(WalTest, BrokenDirectoryFailsAppendAndSetsLastError) {
  LsmStats stats;
  WalWriter writer("/proc/definitely/not/writable/wal-1.log", false, &stats);
  EXPECT_TRUE(writer.broken());
  EXPECT_FALSE(writer.Append(PutRecord(1, "x")));
  EXPECT_NE(stats.last_error().find("wal"), std::string::npos);
}

TEST_F(WalTest, GroupCommitBatchesConcurrentAppends) {
  // With fsync on, the leader releases the mutex for each msync, so
  // appends arriving meanwhile queue as followers and commit in the
  // leader's next group. (Without fsync the leader commits under the
  // mutex and no follower ever queues.)
  LsmStats stats;
  const int kThreads = 8;
  const int kPerThread = 200;
  {
    WalWriter writer(path_, /*fsync_on_commit=*/true, &stats);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
          std::string value = "v" + std::to_string(key);
          ASSERT_TRUE(writer.Append(PutRecord(key, value)));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const uint64_t appends = stats.wal_appends.load();
  const uint64_t batches = stats.group_commit_batches.load();
  EXPECT_EQ(appends, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(batches, 0u);
  EXPECT_LT(batches, appends) << "no append ever joined another's group";
  EXPECT_EQ(stats.wal_synced_bytes.load(), std::filesystem::file_size(path_));

  // Every record must replay intact regardless of how the groups
  // interleaved.
  WalReplayResult result;
  auto entries = Replay(&result);
  EXPECT_TRUE(result.clean);
  ASSERT_EQ(entries.size(), static_cast<size_t>(kThreads) * kPerThread);
  std::vector<bool> seen(kThreads * kPerThread, false);
  for (const auto& [key, value] : entries) {
    ASSERT_LT(key, seen.size());
    EXPECT_FALSE(seen[key]) << "duplicate key " << key;
    seen[key] = true;
    EXPECT_EQ(value, "v" + std::to_string(key));
  }
}

}  // namespace
}  // namespace bloomrf
