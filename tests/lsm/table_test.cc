#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "lsm/table_builder.h"
#include "lsm/table_reader.h"
#include "tests/test_util.h"
#include "workload/key_generator.h"

namespace bloomrf {
namespace {

/// The per-table step of Db::ScanRange: the filter's answer for
/// [lo, hi], and the range's entries when the filter admits it.
bool ProbeAndScan(const TableReader& reader, uint64_t lo, uint64_t hi,
                  size_t limit, std::vector<ScanEntry>* out,
                  LsmStats* stats) {
  bool may_match = false;
  reader.RangeMultiProbe({&lo, 1}, {&hi, 1}, &may_match, stats);
  if (may_match) reader.ScanBlocks(lo, hi, limit, out, stats);
  return may_match;
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = "/tmp/bloomrf_table_test_" + dir_;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(TableTest, BuildAndReadBack) {
  auto policy = NewBloomPolicy(10.0);
  TableBuilder builder(policy.get(), 4096);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 10000; k += 3) {
    builder.Add(k, MakeValue(k, 64));
    keys.push_back(k);
  }
  TableBuildStats build_stats;
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", &build_stats));
  EXPECT_EQ(build_stats.num_entries, keys.size());
  EXPECT_GT(build_stats.filter_block_bytes, 0u);

  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", policy.get(), &stats);
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->min_key(), 0u);
  EXPECT_EQ(reader->max_key(), keys.back());

  std::string value;
  for (uint64_t k : keys) {
    ASSERT_TRUE(reader->Get(k, &value, &stats)) << k;
    EXPECT_EQ(value, MakeValue(k, 64));
  }
  // Absent keys (between the stride) are mostly filtered.
  stats.Reset();
  for (uint64_t k = 1; k < 10000; k += 3) {
    EXPECT_FALSE(reader->Get(k, &value, &stats));
  }
  EXPECT_GT(stats.filter_negatives, stats.filter_probes / 2);
}

TEST_F(TableTest, RangeScanHonoursFilter) {
  auto policy = NewBloomRFPolicy(18.0, 1e6);
  TableBuilder builder(policy.get(), 1024);
  // Keys clustered in [1e9, 1e9 + 1e6], and one key at 2^62 so the
  // table's [min, max] span covers the far-away probes below.
  for (uint64_t k = 0; k < 5000; ++k) {
    builder.Add(1000000000 + k * 200, "v");
  }
  builder.Add(uint64_t{1} << 62, "v");
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", policy.get(), &stats);
  ASSERT_NE(reader, nullptr);

  std::vector<ScanEntry> out;
  // In-cluster range finds entries.
  ASSERT_TRUE(ProbeAndScan(*reader, 1000000000, 1000002000, 100, &out, &stats));
  EXPECT_EQ(out.size(), 11u);  // keys 0..2000 step 200
  // Far-away ranges (distant prefix paths): the filter excludes the
  // vast majority without I/O. Probes land near 2^60, far from the
  // cluster at ~2^30, so even upper layers discriminate.
  stats.Reset();
  uint64_t excluded = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    out.clear();
    uint64_t lo = (uint64_t{1} << 60) + i * 1000000000ULL;
    if (!ProbeAndScan(*reader, lo, lo + 995, 100, &out, &stats)) {
      ++excluded;
      EXPECT_TRUE(out.empty());
    }
  }
  EXPECT_GE(excluded, 15u);
  EXPECT_EQ(stats.filter_probes, 20u);
  EXPECT_EQ(stats.filter_negatives, excluded);
  // Negative probes read no blocks; only the (rare) positives may.
  EXPECT_LE(stats.blocks_read, 20u - excluded);

  // Ranges outside [min, max] are answered by the span alone: no probe,
  // no block read.
  stats.Reset();
  out.clear();
  EXPECT_FALSE(ProbeAndScan(*reader, 0, 999999999, 100, &out, &stats));
  EXPECT_FALSE(
      ProbeAndScan(*reader, (uint64_t{1} << 62) + 1, ~uint64_t{0}, 100, &out,
                   &stats));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.filter_probes, 0u);
  EXPECT_EQ(stats.blocks_read, 0u);
}

TEST_F(TableTest, NullPolicyMeansNoFilter) {
  TableBuilder builder(nullptr, 4096);
  builder.Add(1, "a");
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", nullptr, &stats);
  ASSERT_NE(reader, nullptr);
  std::string value;
  EXPECT_TRUE(reader->Get(1, &value, &stats));
  EXPECT_EQ(stats.filter_probes, 0u);
}

TEST_F(TableTest, OpenRejectsCorruptFile) {
  std::FILE* f = std::fopen((dir_ + "/bad.sst").c_str(), "wb");
  std::fputs("this is not an sst file at all, way too short-ish", f);
  std::fclose(f);
  LsmStats stats;
  EXPECT_EQ(TableReader::Open(dir_ + "/bad.sst", nullptr, &stats), nullptr);
  EXPECT_EQ(TableReader::Open(dir_ + "/missing.sst", nullptr, &stats),
            nullptr);
}

TEST_F(TableTest, FilterBlockLoadsOnOpen) {
  auto policy = NewBloomRFPolicy(14.0, 1e4);
  TableBuilder builder(policy.get(), 4096);
  for (uint64_t k = 0; k < 50000; ++k) builder.Add(k * 977, "v");
  ASSERT_TRUE(builder.WriteTo(dir_ + "/t.sst", nullptr));
  LsmStats stats;
  auto reader = TableReader::Open(dir_ + "/t.sst", policy.get(), &stats);
  ASSERT_NE(reader, nullptr);
  EXPECT_NE(reader->filter(), nullptr);
  EXPECT_GT(reader->filter_memory_bits(), 0u);
}

}  // namespace
}  // namespace bloomrf
