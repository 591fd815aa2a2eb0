// Rosetta baseline (Luo et al., SIGMOD'20; paper [29], Sect. 6 and the
// whole evaluation).
//
// One Bloom filter per dyadic level: level l stores the prefixes
// key >> l for l = 0..L-1 where L = ceil(log2 R) + 1 covers the
// configured maximum range. Range queries decompose [lo, hi] into
// canonical dyadic intervals and probe each with *doubting*: a positive
// on level l is only believed after a positive descendant chain reaches
// the exact bottom-level filter, giving the characteristic
// O(log R)..O(R) probe cost the paper contrasts with bloomRF's O(k).
//
// Memory allocation variants (paper Sect. 6):
//  - kFirstCut (F): bottom level sized for the target FPR, every upper
//    level sized for FPR 1/(2 - eps) ~ 0.5 (log2(e) bits/key each);
//  - kBottomHeavy (V-like): upper levels at 0.5 FPR, the remaining
//    budget split 3:1 between the bottom two levels;
//  - kOptimized (O-like): per-level budgets from an equal-marginal-
//    benefit allocation under the standard BF FPR model, with the
//    bottom level weighted by its doubting fan-in;
//  - kSingleLevel (S): only the bottom filter; range probes enumerate
//    the interval (linear, capped).

#ifndef BLOOMRF_FILTERS_ROSETTA_H_
#define BLOOMRF_FILTERS_ROSETTA_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "filters/bloom_filter.h"
#include "filters/filter.h"

namespace bloomrf {

class Rosetta : public OnlineFilter {
 public:
  enum class Variant { kFirstCut, kBottomHeavy, kOptimized, kSingleLevel };

  struct Options {
    uint64_t expected_keys = 0;
    double bits_per_key = 16;
    uint64_t max_range = 64;  ///< R: largest supported query range
    Variant variant = Variant::kBottomHeavy;
    uint64_t seed = 0x705e77a;
  };

  explicit Rosetta(const Options& options);

  std::string Name() const override { return "Rosetta"; }

  void Insert(uint64_t key) override;
  bool MayContain(uint64_t key) const override;
  bool MayContainRange(uint64_t lo, uint64_t hi) const override;

  uint64_t MemoryBits() const override;

  size_t num_levels() const { return levels_.size(); }

  /// Total Bloom probes of the last range query issued on this thread
  /// (to any Rosetta) — exposes the doubting cost (Fig. 12.G style
  /// breakdowns). Thread-local, so concurrent readers of one filter do
  /// not race on it.
  static uint64_t last_probe_count();

  /// Serializes the options and every per-level Bloom filter.
  std::string Serialize() const override;
  static std::optional<Rosetta> Deserialize(std::string_view data);

 private:
  Rosetta() = default;

  bool Doubt(uint64_t prefix, uint32_t level, uint64_t& probes) const;

  Options options_;
  std::vector<std::unique_ptr<BloomFilter>> levels_;  // index = level
  static constexpr uint64_t kMaxDecomposition = 1ULL << 14;
  /// Per-query bound on doubting probes; beyond it range probes answer
  /// a conservative true (bounds hostile/saturated filters).
  static constexpr uint64_t kMaxDoubtProbes = 1ULL << 20;
};

/// Canonical dyadic decomposition of the inclusive interval [lo, hi]
/// into at most 2*64 (prefix, level) pairs with level <= max_level;
/// intervals wider than max_level split into multiple entries (capped
/// by `cap`; returns false if the cap is exceeded). Shared with tests.
bool DyadicDecompose(uint64_t lo, uint64_t hi, uint32_t max_level,
                     uint64_t cap,
                     std::vector<std::pair<uint64_t, uint32_t>>* out);

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_ROSETTA_H_
