#include "filters/rosetta.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/coding.h"

namespace bloomrf {

namespace {

// Probe count of the last range query on this thread (stats only).
// Per thread because const probes run concurrently on one filter.
thread_local uint64_t last_probes = 0;

}  // namespace

bool DyadicDecompose(uint64_t lo, uint64_t hi, uint32_t max_level,
                     uint64_t cap,
                     std::vector<std::pair<uint64_t, uint32_t>>* out) {
  out->clear();
  while (lo <= hi) {
    // Largest dyadic block starting at lo that fits in [lo, hi] and
    // respects max_level.
    uint32_t level = lo == 0 ? 63 : std::countr_zero(lo);
    level = std::min(level, max_level);
    while (level > 0 &&
           ((uint64_t{1} << level) - 1 > hi - lo)) {
      --level;
    }
    out->emplace_back(lo >> level, level);
    if (out->size() > cap) return false;
    uint64_t step = uint64_t{1} << level;
    if (hi - lo < step) break;  // would overflow / done
    lo += step;
    if (lo == 0) break;  // wrapped
  }
  return true;
}

Rosetta::Rosetta(const Options& options) : options_(options) {
  uint64_t n = std::max<uint64_t>(options.expected_keys, 1);
  double total_bits = options.bits_per_key * static_cast<double>(n);
  uint32_t num_levels =
      options.variant == Variant::kSingleLevel
          ? 1
          : 64 - std::countl_zero(std::max<uint64_t>(options.max_range, 2) - 1) + 1;
  num_levels = std::clamp<uint32_t>(num_levels, 1, 64);

  // Upper levels: FPR ~0.5 costs log2(e) ~ 1.44 bits/key, one hash.
  // When the budget cannot afford that for every level (huge R), the
  // per-level share shrinks so the total stays within budget.
  double budget_bpk = total_bits / static_cast<double>(n);
  double upper_bpk = 1.44;
  if (num_levels > 1) {
    upper_bpk = std::min(
        1.44, std::max(0.5, (budget_bpk - 2.0) /
                                static_cast<double>(num_levels - 1)));
  }
  std::vector<double> bpk(num_levels, 0.0);
  double upper_total = upper_bpk * static_cast<double>(num_levels - 1);
  double remaining = std::max(2.0, budget_bpk - upper_total);
  switch (options_.variant) {
    case Variant::kSingleLevel:
      bpk[0] = total_bits / static_cast<double>(n);
      break;
    case Variant::kFirstCut:
      for (uint32_t l = 1; l < num_levels; ++l) bpk[l] = upper_bpk;
      bpk[0] = remaining;
      break;
    case Variant::kBottomHeavy:
      for (uint32_t l = 1; l < num_levels; ++l) bpk[l] = upper_bpk;
      if (num_levels > 1) {
        bpk[0] = remaining * 0.75;
        bpk[1] += remaining * 0.25;
      } else {
        bpk[0] = remaining;
      }
      break;
    case Variant::kOptimized: {
      // Equal-marginal-benefit allocation: with the BF model
      // eps_l = c^(m_l/n), c = 0.6185, minimizing sum w_l * eps_l
      // subject to sum m_l = m gives m_l/n = base + 1.44 log2(w_l),
      // clipped at 0. Weights: every level contributes one probe per
      // decomposed query; the bottom level additionally absorbs all
      // doubting chains, so it is weighted by the level count.
      std::vector<double> weight(num_levels, 1.0);
      weight[0] = static_cast<double>(num_levels) * 2.0;
      double lo_base = -64, hi_base = 64;
      for (int iter = 0; iter < 60; ++iter) {
        double base = (lo_base + hi_base) / 2;
        double total = 0;
        for (uint32_t l = 0; l < num_levels; ++l) {
          total += std::max(0.0, base + 1.44 * std::log2(weight[l]));
        }
        (total > budget_bpk ? hi_base : lo_base) = base;
      }
      for (uint32_t l = 0; l < num_levels; ++l) {
        bpk[l] = std::max(0.0, lo_base + 1.44 * std::log2(weight[l]));
      }
      break;
    }
  }
  levels_.reserve(num_levels);
  for (uint32_t l = 0; l < num_levels; ++l) {
    uint32_t hashes = l == 0 ? 0 : 1;  // upper levels: single hash
    levels_.push_back(std::make_unique<BloomFilter>(
        n, std::max(1.0, bpk[l]), hashes, options_.seed + l));
  }
}

void Rosetta::Insert(uint64_t key) {
  for (size_t l = 0; l < levels_.size(); ++l) {
    levels_[l]->Insert(key >> l);
  }
}

bool Rosetta::MayContain(uint64_t key) const {
  return levels_[0]->MayContain(key);
}

bool Rosetta::Doubt(uint64_t prefix, uint32_t level,
                    uint64_t& probes) const {
  // Work cap: doubting fans out two children per level, so saturated
  // upper filters (tiny budgets, or a hostile deserialized block with
  // all-ones levels) would otherwise probe 2^level descendants. Past
  // the cap the filter answers a conservative true, preserving the
  // no-false-negative contract while bounding a query's probe count.
  // The counter is query-local, so concurrent probes stay independent.
  if (probes >= kMaxDoubtProbes) return true;
  ++probes;
  if (!levels_[level]->MayContain(prefix)) return false;
  if (level == 0) return true;
  return Doubt(prefix << 1, level - 1, probes) ||
         Doubt((prefix << 1) | 1, level - 1, probes);
}

bool Rosetta::MayContainRange(uint64_t lo, uint64_t hi) const {
  if (lo > hi) return false;
  uint32_t max_level = static_cast<uint32_t>(levels_.size()) - 1;
  std::vector<std::pair<uint64_t, uint32_t>> pieces;
  if (!DyadicDecompose(lo, hi, max_level, kMaxDecomposition, &pieces)) {
    last_probes = 0;  // answered without probing
    return true;  // range too large for the configured R: cannot exclude
  }
  uint64_t probes = 0;
  bool result = false;
  for (const auto& [prefix, level] : pieces) {
    if (Doubt(prefix, level, probes)) {
      result = true;
      break;
    }
  }
  last_probes = probes;
  return result;
}

uint64_t Rosetta::last_probe_count() { return last_probes; }

uint64_t Rosetta::MemoryBits() const {
  uint64_t total = 0;
  for (const auto& bf : levels_) total += bf->MemoryBits();
  return total;
}

std::string Rosetta::Serialize() const {
  std::string out;
  PutFixed64(&out, options_.expected_keys);
  PutFixed64(&out, std::bit_cast<uint64_t>(options_.bits_per_key));
  PutFixed64(&out, options_.max_range);
  PutFixed32(&out, static_cast<uint32_t>(options_.variant));
  PutFixed64(&out, options_.seed);
  PutFixed32(&out, static_cast<uint32_t>(levels_.size()));
  for (const auto& bf : levels_) PutLengthPrefixed(&out, bf->Serialize());
  return out;
}

std::optional<Rosetta> Rosetta::Deserialize(std::string_view data) {
  if (data.size() < 40) return std::nullopt;
  Rosetta filter;
  filter.options_.expected_keys = DecodeFixed64(data.data());
  filter.options_.bits_per_key =
      std::bit_cast<double>(DecodeFixed64(data.data() + 8));
  filter.options_.max_range = DecodeFixed64(data.data() + 16);
  uint32_t variant = DecodeFixed32(data.data() + 24);
  if (variant > static_cast<uint32_t>(Variant::kSingleLevel)) {
    return std::nullopt;
  }
  filter.options_.variant = static_cast<Variant>(variant);
  filter.options_.seed = DecodeFixed64(data.data() + 28);
  uint32_t num_levels = DecodeFixed32(data.data() + 36);
  if (num_levels == 0 || num_levels > 64) return std::nullopt;
  size_t pos = 40;
  filter.levels_.reserve(num_levels);
  for (uint32_t l = 0; l < num_levels; ++l) {
    std::string_view blob;
    if (!GetLengthPrefixed(data, &pos, &blob)) return std::nullopt;
    std::optional<BloomFilter> bf = BloomFilter::Deserialize(blob);
    if (!bf) return std::nullopt;
    filter.levels_.push_back(std::make_unique<BloomFilter>(std::move(*bf)));
  }
  if (pos != data.size()) return std::nullopt;
  return filter;
}

}  // namespace bloomrf
