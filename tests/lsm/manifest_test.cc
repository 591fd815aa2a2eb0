// MANIFEST robustness: VersionEdit encode/decode strictness, replay of
// torn/corrupt manifests (mirroring tests/lsm/wal_test.cc for the
// shared frame format), CURRENT-pointer handling, and Db-level
// recovery when the manifest chain is damaged.

#include "lsm/manifest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/wal.h"
#include "util/random.h"

namespace bloomrf {
namespace {

FileMeta MakeMeta(uint64_t file, uint64_t smallest, uint64_t largest) {
  FileMeta meta;
  meta.file_number = file;
  meta.smallest = smallest;
  meta.largest = largest;
  meta.entries = 10;
  meta.file_bytes = 1000;
  return meta;
}

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_manifest_test_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string ReadFile(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& path, std::string_view bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  void AppendRaw(const std::string& path, std::string_view bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

TEST_F(ManifestTest, VersionEditRoundTrip) {
  VersionEdit edit;
  edit.SetLogNumber(7);
  edit.SetNextFileNumber(42);
  edit.added.emplace_back(0, MakeMeta(3, 100, 200));
  edit.added.emplace_back(2, MakeMeta(4, 0, ~0ull));
  edit.deleted.emplace_back(1, 9);

  VersionEdit out;
  ASSERT_TRUE(VersionEdit::Decode(edit.Encode(), &out));
  EXPECT_TRUE(out.has_log_number);
  EXPECT_EQ(out.log_number, 7u);
  EXPECT_TRUE(out.has_next_file_number);
  EXPECT_EQ(out.next_file_number, 42u);
  ASSERT_EQ(out.added.size(), 2u);
  EXPECT_EQ(out.added[0].first, 0u);
  EXPECT_EQ(out.added[0].second.file_number, 3u);
  EXPECT_EQ(out.added[0].second.smallest, 100u);
  EXPECT_EQ(out.added[0].second.largest, 200u);
  EXPECT_EQ(out.added[0].second.entries, 10u);
  EXPECT_EQ(out.added[0].second.file_bytes, 1000u);
  EXPECT_EQ(out.added[1].first, 2u);
  EXPECT_EQ(out.added[1].second.largest, ~0ull);
  ASSERT_EQ(out.deleted.size(), 1u);
  EXPECT_EQ(out.deleted[0], (std::pair<uint32_t, uint64_t>{1, 9}));
}

TEST_F(ManifestTest, DecodeAcceptsOnlyFieldBoundaryPrefixes) {
  // Fuzz every truncation point of a payload holding all four tags.
  // A cut at a field boundary is a (shorter) valid edit; a cut inside
  // a field must be rejected, never crash or misparse.
  VersionEdit edit;
  edit.SetLogNumber(5);          // 1 + 8 bytes  -> boundary at 9
  edit.SetNextFileNumber(6);     // 1 + 8 bytes  -> boundary at 18
  edit.deleted.emplace_back(0, 1);              // 1 + 4 + 8 -> at 31
  edit.added.emplace_back(0, MakeMeta(2, 0, 1));  // 1 + 4 + 40 -> at 76
  const std::string payload = edit.Encode();
  ASSERT_EQ(payload.size(), 76u);
  const std::vector<size_t> boundaries = {0, 9, 18, 31, 76};
  for (size_t cut = 0; cut <= payload.size(); ++cut) {
    VersionEdit out;
    bool ok = VersionEdit::Decode(payload.substr(0, cut), &out);
    bool at_boundary = std::find(boundaries.begin(), boundaries.end(), cut) !=
                       boundaries.end();
    EXPECT_EQ(ok, at_boundary) << "cut at " << cut;
  }
}

TEST_F(ManifestTest, DecodeRejectsMalformedPayloads) {
  VersionEdit valid;
  valid.SetLogNumber(1);
  VersionEdit out;

  // Unknown tag byte after a valid field.
  std::string unknown_tag = valid.Encode();
  unknown_tag.push_back(0x7f);
  EXPECT_FALSE(VersionEdit::Decode(unknown_tag, &out));

  // Inverted key bounds: an add-file record with smallest > largest is
  // corruption, not a table.
  VersionEdit inverted;
  inverted.added.emplace_back(0, MakeMeta(1, 10, 5));
  EXPECT_FALSE(VersionEdit::Decode(inverted.Encode(), &out));

  // A level index beyond any real tree.
  VersionEdit deep_add;
  deep_add.added.emplace_back(1000, MakeMeta(1, 0, 1));
  EXPECT_FALSE(VersionEdit::Decode(deep_add.Encode(), &out));
  VersionEdit deep_delete;
  deep_delete.deleted.emplace_back(1000, 1);
  EXPECT_FALSE(VersionEdit::Decode(deep_delete.Encode(), &out));
}

TEST_F(ManifestTest, ApplyIsStrictAboutDeletes) {
  ManifestState state;
  VersionEdit add;
  add.added.emplace_back(0, MakeMeta(7, 0, 10));
  ASSERT_TRUE(state.Apply(add));
  ASSERT_EQ(state.levels.size(), 1u);
  EXPECT_EQ(state.levels[0].size(), 1u);

  VersionEdit wrong_file;
  wrong_file.deleted.emplace_back(0, 8);
  EXPECT_FALSE(state.Apply(wrong_file));  // absent file
  VersionEdit wrong_level;
  wrong_level.deleted.emplace_back(3, 7);
  EXPECT_FALSE(state.Apply(wrong_level));  // absent level

  VersionEdit right;
  right.deleted.emplace_back(0, 7);
  EXPECT_TRUE(state.Apply(right));
  EXPECT_TRUE(state.levels[0].empty());
}

TEST_F(ManifestTest, ApplyKeepsMaxOfNumberFields) {
  // Out-of-order numbers (a snapshot edit carrying older coverage than
  // a later live edit) must never move the recovered floor backwards.
  ManifestState state;
  VersionEdit a;
  a.SetLogNumber(9);
  a.SetNextFileNumber(20);
  ASSERT_TRUE(state.Apply(a));
  VersionEdit b;
  b.SetLogNumber(3);
  b.SetNextFileNumber(11);
  ASSERT_TRUE(state.Apply(b));
  EXPECT_EQ(state.log_number, 9u);
  EXPECT_EQ(state.next_file_number, 20u);
  EXPECT_EQ(state.edits, 2u);
}

TEST_F(ManifestTest, WriterReplayRoundTrip) {
  {
    ManifestWriter writer(Env::Default(), dir_, 1);
    ASSERT_TRUE(writer.ok());
    VersionEdit add1;
    add1.SetLogNumber(2);
    add1.SetNextFileNumber(3);
    add1.added.emplace_back(0, MakeMeta(1, 0, 100));
    ASSERT_TRUE(writer.Append(add1));
    VersionEdit add2;
    add2.added.emplace_back(0, MakeMeta(2, 50, 150));
    ASSERT_TRUE(writer.Append(add2));
    VersionEdit compact;
    compact.deleted.emplace_back(0, 1);
    compact.deleted.emplace_back(0, 2);
    compact.added.emplace_back(1, MakeMeta(3, 0, 150));
    ASSERT_TRUE(writer.Append(compact));
    EXPECT_GT(writer.bytes_written(), 0u);
  }
  ManifestState state;
  ManifestReplay(ManifestFileName(dir_, 1), &state);
  EXPECT_TRUE(state.clean);
  EXPECT_EQ(state.edits, 3u);
  EXPECT_EQ(state.log_number, 2u);
  EXPECT_EQ(state.next_file_number, 3u);
  ASSERT_EQ(state.levels.size(), 2u);
  EXPECT_TRUE(state.levels[0].empty());
  ASSERT_EQ(state.levels[1].size(), 1u);
  EXPECT_EQ(state.levels[1][0].file_number, 3u);
}

TEST_F(ManifestTest, MissingManifestRepliesCleanEmpty) {
  ManifestState state;
  ManifestReplay(ManifestFileName(dir_, 99), &state);
  EXPECT_TRUE(state.clean);
  EXPECT_EQ(state.edits, 0u);
  EXPECT_TRUE(state.levels.empty());
}

TEST_F(ManifestTest, EveryTruncationPointKeepsPrefix) {
  // Same-shape edits give fixed-size records, so every record boundary
  // is known; whatever byte a crash cut the manifest at, replay must
  // recover exactly the intact prefix.
  const int kEdits = 6;
  const std::string path = ManifestFileName(dir_, 1);
  {
    ManifestWriter writer(Env::Default(), dir_, 1);
    for (int i = 0; i < kEdits; ++i) {
      VersionEdit edit;
      edit.added.emplace_back(
          0, MakeMeta(static_cast<uint64_t>(i + 1), 0, 10));
      ASSERT_TRUE(writer.Append(edit));
    }
  }
  const std::string original = ReadFile(path);
  const size_t record = original.size() / kEdits;
  ASSERT_EQ(original.size() % kEdits, 0u);
  for (size_t cut = 0; cut <= original.size(); ++cut) {
    WriteFile(path, std::string_view(original).substr(0, cut));
    ManifestState state;
    ManifestReplay(path, &state);
    EXPECT_EQ(state.edits, cut / record) << "cut at " << cut;
    EXPECT_EQ(state.clean, cut % record == 0) << "cut at " << cut;
    if (!state.levels.empty()) {
      ASSERT_EQ(state.levels[0].size(), cut / record);
      for (size_t i = 0; i < state.levels[0].size(); ++i) {
        EXPECT_EQ(state.levels[0][i].file_number, i + 1);
      }
    }
  }
}

TEST_F(ManifestTest, FlippedByteStopsAtBadRecord) {
  const int kEdits = 5;
  const std::string path = ManifestFileName(dir_, 1);
  {
    ManifestWriter writer(Env::Default(), dir_, 1);
    for (int i = 0; i < kEdits; ++i) {
      VersionEdit edit;
      edit.added.emplace_back(
          0, MakeMeta(static_cast<uint64_t>(i + 1), 0, 10));
      ASSERT_TRUE(writer.Append(edit));
    }
  }
  std::string original = ReadFile(path);
  const size_t record = original.size() / kEdits;
  // Flip one byte in the middle of the 4th record: replay keeps the
  // three records before it and reports the tail dirty.
  std::string bent = original;
  bent[3 * record + record / 2] ^= 0x40;
  WriteFile(path, bent);
  ManifestState state;
  ManifestReplay(path, &state);
  EXPECT_FALSE(state.clean);
  EXPECT_EQ(state.edits, 3u);
}

TEST_F(ManifestTest, GarbageTailAndForeignRecordsAreRejected) {
  const std::string path = ManifestFileName(dir_, 1);
  {
    ManifestWriter writer(Env::Default(), dir_, 1);
    VersionEdit edit;
    edit.added.emplace_back(0, MakeMeta(1, 0, 10));
    ASSERT_TRUE(writer.Append(edit));
  }
  // Random garbage after the real record.
  Rng rng(505);
  std::string garbage(128, '\0');
  for (char& c : garbage) c = static_cast<char>(rng.Next());
  AppendRaw(path, garbage);
  ManifestState state;
  ManifestReplay(path, &state);
  EXPECT_FALSE(state.clean);
  EXPECT_EQ(state.edits, 1u);

  // A well-framed record of the wrong type (a WAL batch spliced into a
  // manifest) is corruption too, even though its CRC is valid.
  WriteFile(path, ReadFile(path).substr(
      0, ReadFile(path).size() - garbage.size()));
  const KV kv{1, "x"};
  std::string wal_record;
  WalEncodeRecordTo({&kv, 1}, &wal_record);
  AppendRaw(path, wal_record);
  ManifestReplay(path, &state);
  EXPECT_FALSE(state.clean);
  EXPECT_EQ(state.edits, 1u);
}

TEST_F(ManifestTest, CurrentFileRoundTripAndMalformedContents) {
  EXPECT_EQ(ReadCurrentManifestNumber(dir_), 0u);  // missing
  ASSERT_TRUE(SetCurrentFile(Env::Default(), dir_, 12));
  EXPECT_EQ(ReadCurrentManifestNumber(dir_), 12u);
  ASSERT_TRUE(SetCurrentFile(Env::Default(), dir_, 13));  // atomic swap
  EXPECT_EQ(ReadCurrentManifestNumber(dir_), 13u);
  EXPECT_FALSE(std::filesystem::exists(CurrentFileName(dir_) + ".tmp"));

  WriteFile(CurrentFileName(dir_), "garbage\n");
  EXPECT_EQ(ReadCurrentManifestNumber(dir_), 0u);
  WriteFile(CurrentFileName(dir_), "MANIFEST-\n");
  EXPECT_EQ(ReadCurrentManifestNumber(dir_), 0u);
  WriteFile(CurrentFileName(dir_), "MANIFEST-12x34\n");
  EXPECT_EQ(ReadCurrentManifestNumber(dir_), 0u);
}

TEST_F(ManifestTest, NumberRecordRejectsOverflow) {
  const std::string path = dir_ + "/RECORD";
  WriteFile(path, "mix64 18446744073709551615\n");  // 2^64 - 1 fits
  EXPECT_EQ(ReadNumberRecord(path, "mix64 "), UINT64_MAX);
  // 2^64 + 1, which a parser that wraps reads as 1.
  WriteFile(path, "mix64 18446744073709551617\n");
  EXPECT_EQ(ReadNumberRecord(path, "mix64 "), 0u);
  WriteFile(path, "mix64 99999999999999999999999\n");
  EXPECT_EQ(ReadNumberRecord(path, "mix64 "), 0u);
}

// ---------------------------------------------------------------------
// Db-level recovery when the manifest chain is damaged.
// ---------------------------------------------------------------------

class ManifestDbTest : public ManifestTest {
 protected:
  DbOptions Options() {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = NewBloomPolicy(10.0);
    options.memtable_bytes = 1 << 20;
    return options;
  }
};

TEST_F(ManifestDbTest, MissingCurrentFallsBackToNewestManifest) {
  {
    Db db(Options());
    for (uint64_t k = 0; k < 500; ++k) db.Put(k, "v" + std::to_string(k));
    ASSERT_TRUE(db.Flush());
    for (uint64_t k = 500; k < 1000; ++k) db.Put(k, "v" + std::to_string(k));
    ASSERT_TRUE(db.Flush());
  }
  ASSERT_TRUE(std::filesystem::remove(CurrentFileName(dir_)));
  Db db(Options());
  EXPECT_EQ(db.recovery_stats().tables_quarantined, 0u);
  EXPECT_GE(db.recovery_stats().tables_loaded, 2u);
  EXPECT_GT(db.recovery_stats().manifest_edits_replayed, 0u);
  std::string value;
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, "v" + std::to_string(k));
  }
  // The reopen wrote a fresh snapshot manifest and re-pointed CURRENT.
  EXPECT_GT(ReadCurrentManifestNumber(dir_), 0u);
}

TEST_F(ManifestDbTest, UnreadableLiveManifestQuarantinesTables) {
  {
    Db db(Options());
    for (uint64_t k = 0; k < 500; ++k) db.Put(k, "v" + std::to_string(k));
    ASSERT_TRUE(db.Flush());
  }
  const uint64_t live = ReadCurrentManifestNumber(dir_);
  ASSERT_GT(live, 0u);
  // The live manifest's first record (its snapshot) fails its CRC, and
  // the flush deleted the logs: the SST holds the only copy of the
  // data. With no decodable manifest nothing places it in the tree, so
  // it must be set aside, never deleted as an orphan.
  const std::string path = ManifestFileName(dir_, live);
  std::string bytes = ReadFile(path);
  ASSERT_FALSE(bytes.empty());
  bytes[0] = static_cast<char>(bytes[0] ^ 0xff);
  WriteFile(path, bytes);
  Db db(Options());
  EXPECT_FALSE(db.recovery_stats().manifest_clean);
  EXPECT_EQ(db.recovery_stats().tables_loaded, 0u);
  EXPECT_EQ(db.recovery_stats().tables_quarantined, 1u);
  size_t sst = 0, corrupt = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".sst") ++sst;
    if (name.ends_with(".sst.corrupt")) ++corrupt;
  }
  EXPECT_EQ(sst, 0u);
  EXPECT_EQ(corrupt, 1u);
}

TEST_F(ManifestDbTest, TornManifestTailIsToleratedOnReopen) {
  {
    Db db(Options());
    for (uint64_t k = 0; k < 400; ++k) db.Put(k, "stable");
    ASSERT_TRUE(db.Flush());
  }
  const uint64_t live = ReadCurrentManifestNumber(dir_);
  ASSERT_GT(live, 0u);
  // A crash mid-append leaves a torn record at the tail; everything
  // before it must be trusted.
  AppendRaw(ManifestFileName(dir_, live), std::string(13, '\x5a'));
  Db db(Options());
  EXPECT_FALSE(db.recovery_stats().manifest_clean);
  EXPECT_GE(db.recovery_stats().tables_loaded, 1u);
  std::string value;
  for (uint64_t k = 0; k < 400; ++k) {
    ASSERT_TRUE(db.Get(k, &value)) << k;
    EXPECT_EQ(value, "stable");
  }
}

TEST_F(ManifestDbTest, StaleManifestsAreReplacedOnReopen) {
  {
    Db db(Options());
    db.Put(1, "one");
    ASSERT_TRUE(db.Flush());
  }
  { Db db(Options()); }  // a second life: snapshot + cleanup
  size_t manifests = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("MANIFEST-", 0) == 0) {
      ++manifests;
    }
  }
  EXPECT_EQ(manifests, 1u);  // old generations deleted, one live
  Db db(Options());
  std::string value;
  ASSERT_TRUE(db.Get(1, &value));
  EXPECT_EQ(value, "one");
}

}  // namespace
}  // namespace bloomrf
