// Figure 12.G: probe-cost breakdown in the LSM store at 22 bits/key —
// filter-probe time, deserialization and residual CPU per policy, for
// range sizes 1..1000, in milliseconds.
//
// The engine keeps no clocks, so the bench wraps each policy: its
// LoadFilter times the load of every SST's filter block (the
// deserialization, at flush), and the filter it returns times each
// range probe. Point probes (the Get phase RunLsmWorkload runs after
// the ranges) pass through untimed, so probe_ms covers the range phase
// only. The paper's I/O share has no column: RangeMayMatch answers
// from the filters alone and reads no data block, so cpu_ms is
// total_ms - probe_ms.
//
// Every backend parses its block natively, so deser_ms is a real parse
// rather than a rebuild from keys; construction cost shows on the
// build side (Fig. 12.C, filter_create_seconds).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "bench/lsm_bench_util.h"
#include "util/timer.h"

using namespace bloomrf;
using namespace bloomrf::bench;

namespace {

struct Clocks {
  std::atomic<uint64_t> load_ns{0};
  std::atomic<uint64_t> probe_ns{0};
};

/// A loaded filter that times each range probe into `clocks`.
class TimedFilter : public PointRangeFilter {
 public:
  TimedFilter(std::unique_ptr<PointRangeFilter> inner, Clocks* clocks)
      : inner_(std::move(inner)), clocks_(clocks) {}

  std::string Name() const override { return inner_->Name(); }
  bool MayContain(uint64_t key) const override {
    return inner_->MayContain(key);
  }
  bool MayContainRange(uint64_t lo, uint64_t hi) const override {
    Timer timer;
    const bool may = inner_->MayContainRange(lo, hi);
    clocks_->probe_ns += timer.ElapsedNanos();
    return may;
  }
  void MayContainRangeBatch(std::span<const uint64_t> los,
                            std::span<const uint64_t> his,
                            bool* out) const override {
    Timer timer;
    inner_->MayContainRangeBatch(los, his, out);
    clocks_->probe_ns += timer.ElapsedNanos();
  }
  uint64_t MemoryBits() const override { return inner_->MemoryBits(); }
  std::string Serialize() const override { return inner_->Serialize(); }

 private:
  std::unique_ptr<PointRangeFilter> inner_;
  Clocks* clocks_;
};

/// Builds through `inner`; times each filter load and hands out
/// TimedFilters.
class TimedPolicy : public FilterPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<FilterPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  std::string CreateFilter(const std::vector<uint64_t>& sorted_keys,
                           const FilterBuildContext& context) const override {
    return inner_->CreateFilter(sorted_keys, context);
  }
  std::unique_ptr<PointRangeFilter> LoadFilter(
      std::string_view data) const override {
    Timer timer;
    auto filter = inner_->LoadFilter(data);
    clocks_.load_ns += timer.ElapsedNanos();
    if (filter == nullptr) return nullptr;
    return std::make_unique<TimedFilter>(std::move(filter), &clocks_);
  }

  double deser_ms() const { return clocks_.load_ns.load() / 1e6; }
  double probe_ms() const { return clocks_.probe_ns.load() / 1e6; }

 private:
  std::unique_ptr<FilterPolicy> inner_;
  mutable Clocks clocks_;
};

}  // namespace

int main(int argc, char** argv) {
  Scale scale = ParseScale(argc, argv, 200'000, 5'000);
  Header("Fig. 12.G", "probe-cost breakdown (22 bits/key)", scale);
  Dataset data = MakeDataset(scale.keys, Distribution::kUniform, 0x126);

  std::printf("%-10s %-9s %10s %10s %10s %10s\n", "filter", "range",
              "total_ms", "probe_ms", "deser_ms", "cpu_ms");
  for (uint64_t range : {1ULL, 2ULL, 8ULL, 32ULL, 100ULL, 1000ULL}) {
    QueryWorkload workload = MakeQueryWorkload(
        data, scale.queries, range, Distribution::kUniform, 0x61 + range);
    struct Policy {
      const char* name;
      std::shared_ptr<TimedPolicy> policy;
    };
    std::vector<Policy> policies;
    policies.push_back(
        {"bloomRF", std::make_shared<TimedPolicy>(NewBloomRFPolicy(22.0, 1e6))});
    policies.push_back({"Rosetta", std::make_shared<TimedPolicy>(
                                       NewRosettaPolicy(22.0, 1 << 10))});
    policies.push_back(
        {"SuRF", std::make_shared<TimedPolicy>(NewSurfPolicy(2, 8))});
    for (auto& p : policies) {
      LsmRunResult result = RunLsmWorkload(data, p.policy, workload,
                                           "/tmp/bench_fig12g");
      const double total_ms = result.range_seconds * 1e3;
      const double probe_ms = p.policy->probe_ms();
      std::printf("%-10s %-9llu %10.3f %10.3f %10.3f %10.3f\n", p.name,
                  static_cast<unsigned long long>(range), total_ms, probe_ms,
                  p.policy->deser_ms(), std::max(0.0, total_ms - probe_ms));
    }
  }
  std::printf("\nShape check (paper): bloomRF has the lowest CPU and total "
              "cost; Rosetta's\nfilter-probe share grows with range size "
              "(doubting).\n");
  return 0;
}
