// Quickstart: build a bloomRF filter, insert keys online, run point-
// and range-queries, inspect the configuration and serialize it.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <string>
#include <vector>

#include "core/bloomrf.h"
#include "core/tuning_advisor.h"
#include "filters/registry.h"

using namespace bloomrf;

int main() {
  // 1. Basic, tuning-free bloomRF: just the number of keys and a
  //    space budget. Good for ranges up to ~2^14.
  BloomRF filter(BloomRFConfig::Basic(/*n=*/1'000'000, /*bits_per_key=*/14));
  std::printf("basic config: %s\n", filter.config().DebugString().c_str());

  // 2. Insertion is online: no build phase, safe under concurrency.
  for (uint64_t k = 0; k < 1'000'000; ++k) {
    filter.Insert(k * 9973);  // some scattered keys
  }

  // 3. Point queries: false means definitely absent.
  std::printf("contains 9973*5      -> %d (expect 1)\n",
              filter.MayContain(9973 * 5));
  std::printf("contains 42          -> %d (likely 0)\n",
              filter.MayContain(42));

  // 4. Range queries: false means the whole interval is empty.
  std::printf("range [9973*7, +10]  -> %d (expect 1)\n",
              filter.MayContainRange(9973 * 7, 9973 * 7 + 10));
  std::printf("range [1, 9000]      -> %d (0 w.h.p.; 9973 is outside — a 1 "
              "would be a false positive)\n",
              filter.MayContainRange(1, 9000));

  // 5. For large query ranges, let the tuning advisor pick the
  //    configuration (delta ladder, segments, exact layer).
  AdvisorParams params;
  params.n = 1'000'000;
  params.total_bits = 18 * params.n;
  params.max_range = 1e9;
  AdvisorResult advised = AdviseConfig(params);
  std::printf("advised config: %s\n", advised.config.DebugString().c_str());
  std::printf("expected FPR: range=%.4f point=%.4f\n",
              advised.expected_range_fpr, advised.expected_point_fpr);

  // 6. Serialization round-trip (e.g. for storing as an SST filter
  //    block).
  std::string blob = filter.Serialize();
  auto restored = BloomRF::Deserialize(blob);
  std::printf("serialized %zu bytes, restored=%d\n", blob.size(),
              restored.has_value());

  // 7. The FilterRegistry unifies bloomRF and every baseline behind
  //    one serializable interface: build any backend by name, store
  //    the framed block, reconstruct it without knowing the backend.
  auto& registry = FilterRegistry::Instance();
  std::printf("registered backends:");
  for (const std::string& name : registry.Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  std::vector<uint64_t> sorted_keys;
  for (uint64_t k = 0; k < 10'000; ++k) sorted_keys.push_back(k * 37);
  std::string framed = registry.BuildFramed(  // name | payload
      "rosetta", sorted_keys, {.bits_per_key = 18.0, .max_range = 1e4});
  auto reloaded = registry.Deserialize(framed);
  std::printf("registry round-trip: %s, %zu bytes, range [37, 40] -> %d "
              "(expect 1)\n",
              reloaded->Name().c_str(), framed.size(),
              reloaded->MayContainRange(37, 40));
  return 0;
}
