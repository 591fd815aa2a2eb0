#include "core/config.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace bloomrf {

uint32_t BloomRFConfig::LevelOfLayer(size_t i) const {
  uint32_t level = 0;
  for (size_t j = 0; j < i && j < delta.size(); ++j) level += delta[j];
  return level;
}

uint64_t BloomRFConfig::ExactBits() const {
  if (!has_exact_layer) return 0;
  uint32_t level = TopLevel();
  if (level >= domain_bits) return 1;
  return uint64_t{1} << (domain_bits - level);
}

uint64_t BloomRFConfig::TotalBits() const {
  uint64_t total = ExactBits();
  for (uint64_t m : segment_bits) total += m;
  return total;
}

std::string BloomRFConfig::Validate() const {
  if (domain_bits == 0 || domain_bits > 64) return "domain_bits must be 1..64";
  if (delta.empty()) return "at least one layer required";
  if (replicas.size() != delta.size() || segment_of.size() != delta.size()) {
    return "delta/replicas/segment_of size mismatch";
  }
  uint32_t level = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] < 1 || delta[i] > 7) return "delta[i] must be in [1,7]";
    if (replicas[i] < 1) return "replicas[i] must be >= 1";
    if (segment_of[i] >= segment_bits.size()) return "segment_of out of range";
    level += delta[i];
  }
  if (LevelOfLayer(delta.size() - 1) >= domain_bits) {
    return "bottom k-1 layers already cover the domain";
  }
  for (size_t j = 0; j < segment_bits.size(); ++j) {
    if (segment_bits[j] < 64) return "segment smaller than 64 bits";
  }
  if (has_exact_layer && domain_bits > TopLevel() &&
      domain_bits - TopLevel() > 40) {
    return "exact bitmap larger than 2^40 bits";
  }
  return "";
}

BloomRFConfig BloomRFConfig::Basic(uint64_t n, double bits_per_key,
                                   uint32_t domain_bits, uint32_t delta) {
  BloomRFConfig cfg;
  cfg.domain_bits = domain_bits;
  if (n < 2) n = 2;
  uint32_t log2n = 0;
  while ((uint64_t{1} << (log2n + 1)) <= n && log2n + 1 < 63) ++log2n;
  uint32_t effective = domain_bits > log2n ? domain_bits - log2n : 1;
  uint32_t k = (effective + delta - 1) / delta;
  // The bottom layer must sit strictly below the domain top.
  uint32_t max_k = (domain_bits + delta - 1) / delta;
  if (k > max_k) k = max_k;
  if (k < 1) k = 1;
  while (k > 1 && (k - 1) * delta >= domain_bits) --k;
  cfg.delta.assign(k, static_cast<uint8_t>(delta));
  cfg.replicas.assign(k, 1);
  cfg.segment_of.assign(k, 0);
  uint64_t m = static_cast<uint64_t>(bits_per_key * static_cast<double>(n));
  m = (m + 63) & ~63ULL;
  if (m < 64) m = 64;
  cfg.segment_bits = {m};
  return cfg;
}

std::string BloomRFConfig::DebugString() const {
  std::ostringstream os;
  os << "BloomRFConfig{d=" << domain_bits << " k=" << delta.size()
     << " delta=[";
  for (size_t i = 0; i < delta.size(); ++i) {
    os << (i ? "," : "") << int{delta[i]};
  }
  os << "] r=[";
  for (size_t i = 0; i < replicas.size(); ++i) {
    os << (i ? "," : "") << int{replicas[i]};
  }
  os << "] seg=[";
  for (size_t i = 0; i < segment_of.size(); ++i) {
    os << (i ? "," : "") << int{segment_of[i]};
  }
  os << "] m=[";
  for (size_t j = 0; j < segment_bits.size(); ++j) {
    os << (j ? "," : "") << segment_bits[j];
  }
  os << "] exact=" << (has_exact_layer ? "yes" : "no");
  if (has_exact_layer) {
    os << "(level " << TopLevel() << ", " << ExactBits() << " bits)";
  }
  if (key_base != 0) os << " base=" << key_base;
  os << "}";
  return os.str();
}

KeyDomain KeyDomainOf(std::span<const uint64_t> sorted_keys) {
  if (sorted_keys.empty()) return {};
  const uint64_t span = sorted_keys.back() - sorted_keys.front();
  return {sorted_keys.front(),
          std::max<uint32_t>(1, static_cast<uint32_t>(std::bit_width(span)))};
}

}  // namespace bloomrf
