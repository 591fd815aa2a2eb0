// Registry-parameterized round-trip tests: every registered backend
// must build from sorted keys, serialize through the common framing,
// deserialize back through the registry, and answer identically —
// with no false negatives — on both point and range probes.

#include "filters/registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/bloomrf.h"
#include "core/tuning_advisor.h"
#include "tests/test_util.h"

namespace bloomrf {
namespace {

using ::bloomrf::testing::RandomKeySet;

// An external backend registered through the public macro, proving a
// new filter is a single-translation-unit change. It remembers nothing
// and answers true everywhere (trivially no false negatives).
class AlwaysTrueFilter : public PointRangeFilter {
 public:
  std::string Name() const override { return "AlwaysTrue"; }
  bool MayContain(uint64_t) const override { return true; }
  bool MayContainRange(uint64_t, uint64_t) const override { return true; }
  uint64_t MemoryBits() const override { return 1; }
  std::string Serialize() const override { return ""; }
};

FilterRegistry::Entry AlwaysTrueEntry() {
  FilterRegistry::Entry entry;
  entry.name = "always_true";
  entry.display_name = "AlwaysTrue";
  entry.build_from_sorted_keys = [](const std::vector<uint64_t>&,
                                    const FilterBuildParams&) {
    return std::make_unique<AlwaysTrueFilter>();
  };
  entry.deserialize = [](std::string_view payload)
      -> std::unique_ptr<PointRangeFilter> {
    if (!payload.empty()) return nullptr;
    return std::make_unique<AlwaysTrueFilter>();
  };
  return entry;
}

BLOOMRF_REGISTER_FILTER(always_true, AlwaysTrueEntry())

std::vector<uint64_t> SortedKeys(size_t n, uint64_t seed) {
  auto keyset = RandomKeySet(n, seed);
  return {keyset.begin(), keyset.end()};
}

FilterBuildParams TestParams() {
  FilterBuildParams params;
  params.bits_per_key = 18.0;
  params.max_range = 1 << 12;
  return params;
}

TEST(FilterRegistryTest, ListsAllBuiltinBackends) {
  auto names = FilterRegistry::Instance().Names();
  std::set<std::string> have(names.begin(), names.end());
  for (const char* expected :
       {"bloomrf", "bloom", "blocked_bloom", "prefix_bloom", "cuckoo",
        "rosetta", "surf", "fence_pointers"}) {
    EXPECT_EQ(have.count(expected), 1u) << expected;
  }
  EXPECT_GE(have.size(), 6u);
}

TEST(FilterRegistryTest, FindResolvesKeyAndDisplayName) {
  auto& registry = FilterRegistry::Instance();
  const auto* by_key = registry.Find("bloomrf");
  ASSERT_NE(by_key, nullptr);
  EXPECT_EQ(by_key->display_name, "bloomRF");
  EXPECT_EQ(registry.Find("bloomRF"), by_key);
  EXPECT_EQ(registry.Find("no_such_filter"), nullptr);
  EXPECT_EQ(registry.BuildFramed("no_such_filter", {1, 2}, TestParams()), "");
  // The macro-registered external backend resolves like a built-in.
  ASSERT_NE(registry.Find("always_true"), nullptr);
  EXPECT_EQ(registry.Find("always_true")->display_name, "AlwaysTrue");
}

TEST(FilterRegistryTest, RoundTripIdenticalAnswersEveryBackend) {
  auto& registry = FilterRegistry::Instance();
  auto keys = SortedKeys(5000, 301);
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE(name);
    const auto* entry = registry.Find(name);
    ASSERT_NE(entry, nullptr);
    auto built = entry->build_from_sorted_keys(keys, TestParams());
    ASSERT_NE(built, nullptr);
    EXPECT_EQ(built->Name(), entry->display_name);

    std::string framed = registry.BuildFramed(name, keys, TestParams());
    EXPECT_EQ(framed, FilterRegistry::Frame(entry->name, built->Serialize()));
    auto restored = registry.Deserialize(framed);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->Name(), entry->display_name);
    EXPECT_EQ(restored->MemoryBits(), built->MemoryBits());

    // No false negatives, before and after the round trip.
    for (uint64_t k : keys) {
      ASSERT_TRUE(built->MayContain(k)) << k;
      ASSERT_TRUE(restored->MayContain(k)) << k;
      uint64_t hi = k + 100 > k ? k + 100 : k;
      ASSERT_TRUE(built->MayContainRange(k, hi)) << k;
      ASSERT_TRUE(restored->MayContainRange(k, hi)) << k;
    }

    // Identical answers on arbitrary probes, positive or negative.
    Rng rng(302);
    for (int i = 0; i < 5000; ++i) {
      uint64_t y = rng.Next();
      ASSERT_EQ(restored->MayContain(y), built->MayContain(y)) << y;
      uint64_t hi = y + 1000 > y ? y + 1000 : y;
      ASSERT_EQ(restored->MayContainRange(y, hi),
                built->MayContainRange(y, hi))
          << y;
    }
  }
}

TEST(FilterRegistryTest, BatchProbeMatchesScalarProbe) {
  auto& registry = FilterRegistry::Instance();
  auto keys = SortedKeys(2000, 303);
  std::vector<uint64_t> probes = SortedKeys(512, 304);
  probes.insert(probes.end(), keys.begin(), keys.begin() + 256);
  std::vector<bool> expected(probes.size());
  auto got = std::make_unique<bool[]>(probes.size());
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE(name);
    auto built =
        registry.Find(name)->build_from_sorted_keys(keys, TestParams());
    ASSERT_NE(built, nullptr);
    for (size_t i = 0; i < probes.size(); ++i) {
      expected[i] = built->MayContain(probes[i]);
    }
    built->MayContainBatch(probes, got.get());
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << i;
    }
  }
}

TEST(FilterRegistryTest, OnlineBuildHasNoFalseNegatives) {
  auto& registry = FilterRegistry::Instance();
  auto keys = SortedKeys(3000, 305);
  FilterBuildParams params = TestParams();
  params.expected_keys = keys.size();
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE(name);
    const auto* entry = registry.Find(name);
    if (!entry->online) {
      EXPECT_EQ(entry->build_online, nullptr);
      continue;
    }
    auto filter = entry->build_online(params);
    ASSERT_NE(filter, nullptr);
    for (uint64_t k : keys) filter->Insert(k);
    for (uint64_t k : keys) ASSERT_TRUE(filter->MayContain(k)) << k;
  }
}

TEST(FilterRegistryTest, BloomRFEntryBuildsTheAdvisedConfig) {
  // The entry hands the params, histogram included, to the tuning
  // advisor: its block is the advised BloomRF's, whatever the widths.
  auto keys = SortedKeys(3000, 308);
  std::vector<std::vector<double>> histograms = {
      {},                                  // scalar max_range
      {0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5},  // bimodal 4 / 64
      std::vector<double>(41, 1.0 / 41),   // every width up to 2^40
  };
  histograms.emplace_back(21, 0.0);
  histograms.back()[20] = 1.0;  // all mass at 2^20
  for (const std::vector<double>& weights : histograms) {
    SCOPED_TRACE(weights.size());
    FilterBuildParams params = TestParams();
    params.range_weights = weights;
    AdvisorParams advisor;
    advisor.n = keys.size();
    advisor.total_bits =
        static_cast<uint64_t>(params.bits_per_key * keys.size());
    advisor.max_range = params.max_range;
    advisor.range_weights = weights;
    BloomRF expected(AdviseConfig(advisor).config);
    for (uint64_t k : keys) expected.Insert(k);
    EXPECT_EQ(FilterRegistry::Instance().BuildFramed("bloomrf", keys, params),
              FilterRegistry::Frame("bloomrf", expected.Serialize()));
  }
}

TEST(FilterRegistryTest, FramingRejectsCorruptBlocks) {
  auto& registry = FilterRegistry::Instance();
  auto keys = SortedKeys(500, 306);
  std::string framed = registry.BuildFramed("bloomrf", keys, TestParams());
  ASSERT_NE(registry.Deserialize(framed), nullptr);

  EXPECT_EQ(registry.Deserialize(""), nullptr);
  EXPECT_EQ(registry.Deserialize("garbage"), nullptr);
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    EXPECT_EQ(registry.Deserialize(framed.substr(0, cut)), nullptr) << cut;
  }
  // A frame naming an unregistered backend is rejected even with a
  // plausible payload.
  std::string_view name, payload;
  ASSERT_TRUE(FilterRegistry::ParseFrame(framed, &name, &payload));
  EXPECT_EQ(registry.Deserialize(
                FilterRegistry::Frame("not_registered", payload)),
            nullptr);
}

TEST(FilterRegistryTest, RegisterRejectsDuplicatesAndIncompleteEntries) {
  auto& registry = FilterRegistry::Instance();
  const auto* bloom = registry.Find("bloom");
  ASSERT_NE(bloom, nullptr);

  FilterRegistry::Entry dup = *bloom;  // same name
  EXPECT_FALSE(registry.Register(dup));

  FilterRegistry::Entry alias = *bloom;
  alias.name = "bloom_again";  // same display name
  EXPECT_FALSE(registry.Register(alias));

  FilterRegistry::Entry incomplete;
  incomplete.name = "incomplete";
  incomplete.display_name = "Incomplete";
  EXPECT_FALSE(registry.Register(incomplete));  // missing factories

  FilterRegistry::Entry inconsistent = *bloom;
  inconsistent.name = "bloom_inconsistent";
  inconsistent.display_name = "BloomInconsistent";
  inconsistent.online = true;
  inconsistent.build_online = nullptr;  // flag promises what's absent
  EXPECT_FALSE(registry.Register(inconsistent));

  // Keys and display names share Find's namespace: a key colliding
  // with an existing display name (or vice versa) would shadow it.
  FilterRegistry::Entry shadow = *bloom;
  shadow.name = "Bloom";  // collides with bloom's display name
  shadow.display_name = "ShadowBloom";
  EXPECT_FALSE(registry.Register(shadow));

  FilterRegistry::Entry shadow2 = *bloom;
  shadow2.name = "shadow_bloom";
  shadow2.display_name = "bloom";  // collides with bloom's key
  EXPECT_FALSE(registry.Register(shadow2));
}

}  // namespace
}  // namespace bloomrf
