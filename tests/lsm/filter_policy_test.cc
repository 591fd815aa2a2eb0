// Direct FilterPolicy-level tests: serialization round trips through
// the registry-framed filter-block format, corruption rejection, and
// per-backend semantics outside the full DB. Every policy is an
// instance of the one generic RegistryFilterPolicy adapter.

#include "lsm/filter_policy.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::RandomKeySet;

std::vector<uint64_t> SortedKeys(size_t n, uint64_t seed) {
  auto keyset = RandomKeySet(n, seed);
  return {keyset.begin(), keyset.end()};
}

struct PolicyCase {
  const char* label;
  std::unique_ptr<FilterPolicy> policy;
  bool supports_ranges;
};

std::vector<PolicyCase> AllPolicies() {
  std::vector<PolicyCase> cases;
  cases.push_back({"bloomRF", NewBloomRFPolicy(18.0, 1e6), true});
  cases.push_back({"Bloom", NewBloomPolicy(10.0), false});
  cases.push_back({"PrefixBloom", NewPrefixBloomPolicy(14.0, 16), true});
  cases.push_back({"Rosetta", NewRosettaPolicy(18.0, 1 << 10), true});
  cases.push_back({"SuRF", NewSurfPolicy(2, 8), true});
  cases.push_back({"Fence", NewFencePointerPolicy(4.0), true});
  cases.push_back({"Cuckoo", NewCuckooPolicy(12), false});
  return cases;
}

TEST(FilterPolicyTest, RoundTripNoFalseNegatives) {
  auto keys = SortedKeys(20000, 201);
  for (auto& pc : AllPolicies()) {
    std::string blob = pc.policy->CreateFilter(keys, {});
    auto probe = pc.policy->LoadFilter(blob);
    ASSERT_NE(probe, nullptr) << pc.label;
    for (uint64_t k : keys) {
      ASSERT_TRUE(probe->MayContain(k)) << pc.label << " " << k;
      ASSERT_TRUE(probe->MayContainRange(k, k + 100 > k ? k + 100 : k))
          << pc.label;
    }
    EXPECT_GT(probe->MemoryBits(), 0u) << pc.label;
  }
}

TEST(FilterPolicyTest, CorruptBlocksRejectedOrSafe) {
  auto keys = SortedKeys(1000, 202);
  for (auto& pc : AllPolicies()) {
    std::string blob = pc.policy->CreateFilter(keys, {});
    // Truncations must never crash; either nullptr or a safe probe.
    for (size_t cut : {size_t{0}, size_t{1}, blob.size() / 2,
                       blob.size() - 1}) {
      auto probe = pc.policy->LoadFilter(blob.substr(0, cut));
      if (probe != nullptr) {
        probe->MayContain(42);  // must be safe to call
      }
    }
  }
}

TEST(FilterPolicyTest, EmptyKeySetProducesWorkingFilter) {
  std::vector<uint64_t> empty;
  for (auto& pc : AllPolicies()) {
    std::string blob = pc.policy->CreateFilter(empty, {});
    auto probe = pc.policy->LoadFilter(blob);
    if (probe != nullptr) {
      // An empty filter may answer anything, but must not crash.
      probe->MayContain(42);
      probe->MayContainRange(1, 100);
    }
  }
}

TEST(FilterPolicyTest, BlocksSelfDescribeAcrossPolicies) {
  // Registry framing makes any block loadable through any policy
  // instance: the frame's name, not the loading policy, selects the
  // backend.
  auto keys = SortedKeys(2000, 206);
  std::string blob = NewBloomRFPolicy(18.0, 1e6)->CreateFilter(keys, {});
  auto probe = NewBloomPolicy(10.0)->LoadFilter(blob);
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->Name(), "bloomRF");
  for (uint64_t k : keys) ASSERT_TRUE(probe->MayContain(k));
}

TEST(FilterPolicyTest, UnknownBackendYieldsNoFilter) {
  auto policy = NewRegistryPolicy("definitely_not_registered");
  EXPECT_EQ(policy->Name(), "definitely_not_registered");
  EXPECT_EQ(policy->CreateFilter(SortedKeys(10, 207), {}), "");
  EXPECT_EQ(policy->LoadFilter("garbage"), nullptr);
}

TEST(FilterPolicyTest, BloomRFPolicyExcludesEmptyRanges) {
  auto keys = SortedKeys(50000, 203);
  auto policy = NewBloomRFPolicy(20.0, 1e6);
  auto probe = policy->LoadFilter(policy->CreateFilter(keys, {}));
  ASSERT_NE(probe, nullptr);
  Rng rng(204);
  uint64_t excluded = 0, empties = 0;
  std::set<uint64_t> keyset(keys.begin(), keys.end());
  for (int i = 0; i < 5000; ++i) {
    uint64_t lo = rng.Next();
    uint64_t hi = lo + 999999 > lo ? lo + 999999 : lo;
    auto it = keyset.lower_bound(lo);
    if (it != keyset.end() && *it <= hi) continue;
    ++empties;
    if (!probe->MayContainRange(lo, hi)) ++excluded;
  }
  ASSERT_GT(empties, 1000u);
  EXPECT_GT(excluded, empties * 9 / 10);
}

TEST(FilterPolicyTest, NamesAreStable) {
  EXPECT_EQ(NewBloomRFPolicy(10, 10)->Name(), "bloomRF");
  EXPECT_EQ(NewBloomPolicy(10)->Name(), "Bloom");
  EXPECT_EQ(NewRosettaPolicy(10, 16)->Name(), "Rosetta");
  EXPECT_EQ(NewSurfPolicy(1, 8)->Name(), "SuRF");
  EXPECT_EQ(NewPrefixBloomPolicy(10, 8)->Name(), "PrefixBloom");
  EXPECT_EQ(NewFencePointerPolicy(4)->Name(), "FencePointers");
  EXPECT_EQ(NewCuckooPolicy(12)->Name(), "Cuckoo");
  // Registry keys and display names both resolve.
  EXPECT_EQ(NewRegistryPolicy("bloomrf")->Name(), "bloomRF");
  EXPECT_EQ(NewRegistryPolicy("bloomRF")->Name(), "bloomRF");
}

TEST(FilterPolicyTest, MemoryBitsTrackBudget) {
  auto keys = SortedKeys(50000, 205);
  auto policy = NewBloomRFPolicy(18.0, 1e6);
  auto probe = policy->LoadFilter(policy->CreateFilter(keys, {}));
  ASSERT_NE(probe, nullptr);
  double bpk = static_cast<double>(probe->MemoryBits()) /
               static_cast<double>(keys.size());
  EXPECT_GT(bpk, 16.0);
  EXPECT_LT(bpk, 19.0);
}

}  // namespace
}  // namespace bloomrf
