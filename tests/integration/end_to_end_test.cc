// End-to-end integration: the full YCSB-E-style flow of the paper's
// Experiment 1 at miniature scale — dataset generation, LSM ingestion
// with filter blocks, empty point/range workloads, FPR and I/O
// accounting — plus cross-filter sanity on identical data.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "bench/lsm_bench_util.h"
#include "lsm/db.h"
#include "workload/key_generator.h"
#include "workload/query_generator.h"

namespace bloomrf {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/bloomrf_e2e_" + std::string(::testing::UnitTest::
        GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(EndToEndTest, Experiment1MiniatureBloomRF) {
  Dataset data = MakeDataset(40000, Distribution::kUniform, 301);
  QueryWorkload workload =
      MakeQueryWorkload(data, 2000, 100000, Distribution::kNormal, 302);
  bench::LsmRunResult result = bench::RunLsmWorkload(
      data, NewBloomRFPolicy(22.0, 1e5), workload, dir_, 64, 512 << 10);
  EXPECT_GT(result.sst_files, 1u);
  EXPECT_LT(result.range_fpr, 0.10);
  EXPECT_LT(result.point_fpr, 0.02);
  // Filters must have produced negatives (I/O skipped).
  EXPECT_GT(result.stats.filter_negatives, 0u);
  double bpk = static_cast<double>(result.filter_bits) /
               static_cast<double>(data.keys.size());
  EXPECT_GT(bpk, 20.0);
  EXPECT_LT(bpk, 24.0);
}

TEST_F(EndToEndTest, AllPoliciesAgreeOnNonEmptyRanges) {
  Dataset data = MakeDataset(10000, Distribution::kNormal, 303);
  QueryWorkload workload =
      MakeQueryWorkload(data, 500, 1000, Distribution::kNormal, 304);
  std::vector<std::shared_ptr<FilterPolicy>> policies = {
      NewBloomRFPolicy(20.0, 1e3), NewRosettaPolicy(20.0, 1 << 10),
      NewSurfPolicy(2, 8)};
  int idx = 0;
  for (auto& policy : policies) {
    std::string subdir = dir_ + "/v" + std::to_string(idx++);
    DbOptions options;
    options.dir = subdir;
    options.filter_policy = policy;
    options.memtable_bytes = 256 << 10;
    Db db(options);
    for (uint64_t k : data.keys) db.Put(k, "x");
    db.Flush();
    for (const RangeQuery& q : workload.range_queries) {
      if (!q.empty) {
        ASSERT_TRUE(db.RangeMayMatch(q.lo, q.hi))
            << "policy " << idx << " [" << q.lo << "," << q.hi << "]";
      }
    }
  }
}

TEST_F(EndToEndTest, SkewedWorkloadStaysRobust) {
  // Problem 3: zipfian data and workload must not blow up the FPR.
  Dataset data = MakeDataset(30000, Distribution::kZipfian, 305);
  QueryWorkload workload =
      MakeQueryWorkload(data, 2000, 1 << 14, Distribution::kZipfian, 306);
  bench::LsmRunResult result = bench::RunLsmWorkload(
      data, NewBloomRFPolicy(20.0, 1 << 14), workload, dir_, 64, 512 << 10);
  EXPECT_LT(result.range_fpr, 0.35);
  EXPECT_LT(result.point_fpr, 0.05);
}

TEST_F(EndToEndTest, ReopenedFiltersKeepWorking) {
  // Round-trip through the on-disk filter blocks: reopen SSTs fresh.
  Dataset data = MakeDataset(20000, Distribution::kUniform, 307);
  auto policy = std::shared_ptr<FilterPolicy>(NewBloomRFPolicy(18.0, 1e4));
  {
    DbOptions options;
    options.dir = dir_;
    options.filter_policy = policy;
    options.memtable_bytes = 256 << 10;
    Db db(options);
    for (uint64_t k : data.keys) db.Put(k, MakeValue(k, 32));
    db.Flush();
  }
  // Open the SST files directly through TableReader (the directory
  // also holds the MANIFEST and CURRENT files now).
  LsmStats stats;
  std::vector<std::unique_ptr<TableReader>> readers;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() != ".sst") continue;
    auto reader = TableReader::Open(entry.path().string(), policy.get(),
                                    &stats);
    ASSERT_NE(reader, nullptr);
    EXPECT_NE(reader->filter(), nullptr);
    readers.push_back(std::move(reader));
  }
  ASSERT_GT(readers.size(), 1u);
  // Spot-check membership via the fresh readers: each key was flushed
  // into exactly one table, whose reloaded filter must let it through.
  std::string value;
  for (size_t i = 0; i < data.keys.size(); i += 997) {
    const uint64_t k = data.keys[i];
    size_t found = 0;
    for (const auto& reader : readers) {
      if (reader->Get(k, &value, &stats)) ++found;
    }
    EXPECT_EQ(found, 1u) << k;
  }
}

}  // namespace
}  // namespace bloomrf
