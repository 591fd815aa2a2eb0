#include "core/bloomrf.h"

#include <algorithm>
#include <cassert>

#include "util/coding.h"
#include "util/hash.h"

namespace bloomrf {

namespace {

// Serialized format tag, followed later in the header by the
// hash-scheme byte and, after the seed, the key base. The only scheme
// is hash-once double hashing (1); any other tag or scheme byte is
// rejected, so a block from before the key base (tag 0xb100f002) does
// not load.
constexpr uint32_t kFormatTagV3 = 0xb100f003;
constexpr uint8_t kSchemeDoubleHash = 1;

// Replica r's slot from the word key's base hash h.
inline uint64_t SlotFromHash(uint64_t h, uint32_t r, uint64_t num_slots) {
  return FastRange64(h + r * DeriveStride(h), num_slots);
}

}  // namespace

BloomRF::BloomRF(BloomRFConfig config) : config_(std::move(config)) {
  std::string problem = config_.Validate();
  assert(problem.empty() && "invalid BloomRFConfig");
  if (!problem.empty()) {
    config_ = BloomRFConfig::Basic(1024, 10.0);
  }
  // Round segments up so every layer's word size divides the segment.
  for (uint64_t& m : config_.segment_bits) m = (m + 63) & ~63ULL;

  top_level_ = config_.TopLevel();
  // The domain [key_base, key_base + 2^d - 1], capped at UINT64_MAX
  // (d is 1..64 once validated).
  max_offset_ = std::min(UINT64_MAX >> (64 - config_.domain_bits),
                         UINT64_MAX - config_.key_base);
  uint64_t seed_state = config_.seed;
  perm_seed_ = SplitMix64(seed_state);

  segments_.resize(config_.segment_bits.size());
  for (size_t j = 0; j < segments_.size(); ++j) {
    segments_[j].Reset(config_.segment_bits[j]);
  }
  if (config_.has_exact_layer) {
    exact_.Reset(config_.ExactBits());
  }

  layers_.resize(config_.num_layers());
  for (size_t i = 0; i < layers_.size(); ++i) {
    Layer& layer = layers_[i];
    layer.level = config_.LevelOfLayer(i);
    layer.offset_bits = config_.delta[i] - 1;
    layer.word_bits = 1u << layer.offset_bits;
    layer.replicas = config_.replicas[i];
    layer.segment = config_.segment_of[i];
    layer.num_slots = config_.segment_bits[layer.segment] / layer.word_bits;
    layer.seed_base = SplitMix64(seed_state) + (uint64_t{i} << 32);
  }
}

bool BloomRF::WordReversed(const Layer& layer, uint64_t word_key) const {
  if (!config_.permute_words || layer.word_bits == 1) return false;
  return Hash64(word_key, perm_seed_) & 1;
}

uint64_t BloomRF::WordIndexForKey(uint64_t key, size_t layer_idx,
                                  uint32_t replica) const {
  const Layer& layer = layers_[layer_idx];
  uint64_t word_key =
      Shr(key - config_.key_base, layer.level + layer.offset_bits);
  return SlotFromHash(Hash64(word_key, layer.seed_base), replica,
                      layer.num_slots);
}

void BloomRF::Insert(uint64_t key) {
  key -= config_.key_base;
  assert(key <= max_offset_ && "key outside the filter's domain");
  if (key > max_offset_) return;
  for (const Layer& layer : layers_) {
    uint64_t prefix = Shr(key, layer.level);
    uint64_t word_key = prefix >> layer.offset_bits;
    uint64_t offset = prefix & (layer.word_bits - 1);
    if (WordReversed(layer, word_key)) {
      offset = layer.word_bits - 1 - offset;
    }
    uint64_t bit = uint64_t{1} << offset;
    BitArray& seg = segments_[layer.segment];
    uint64_t h = Hash64(word_key, layer.seed_base);
    for (uint32_t r = 0; r < layer.replicas; ++r) {
      seg.OrWord(SlotFromHash(h, r, layer.num_slots), layer.word_bits, bit);
    }
  }
  if (config_.has_exact_layer) {
    exact_.SetBit(Shr(key, top_level_));
  }
}

uint64_t BloomRF::LoadWordAnd(const Layer& layer, uint64_t word_key) const {
  const BitArray& seg = segments_[layer.segment];
  uint64_t h = Hash64(word_key, layer.seed_base);
  uint64_t word =
      seg.LoadWord(SlotFromHash(h, 0, layer.num_slots), layer.word_bits);
  for (uint32_t r = 1; r < layer.replicas && word != 0; ++r) {
    word &= seg.LoadWord(SlotFromHash(h, r, layer.num_slots), layer.word_bits);
  }
  return word;
}

bool BloomRF::TestPrefix(const Layer& layer, uint64_t p,
                         ProbeStats* stats) const {
  if (stats) ++stats->bit_probes;
  uint64_t word_key = p >> layer.offset_bits;
  return (LoadWordAnd(layer, word_key) >> ProbeOffsetFor(layer, p)) & 1ULL;
}

bool BloomRF::TestPrefixRange(const Layer& layer, uint64_t x, uint64_t y,
                              uint64_t max_words, ProbeStats* stats) const {
  if (x > y) return false;
  uint64_t first_word = x >> layer.offset_bits;
  uint64_t last_word = y >> layer.offset_bits;
  if (last_word - first_word + 1 > max_words) return true;  // conservative
  for (uint64_t wk = first_word; wk <= last_word; ++wk) {
    if (stats) ++stats->word_probes;
    uint64_t word = LoadWordAnd(layer, wk);
    // In-word mask of [x, y] restricted to word wk, permutation applied.
    uint64_t base = wk << layer.offset_bits;
    uint64_t lo_off = (x > base) ? x - base : 0;
    uint64_t hi_off = std::min<uint64_t>(y - base, layer.word_bits - 1);
    if (WordReversed(layer, wk)) {
      uint64_t new_lo = layer.word_bits - 1 - hi_off;
      hi_off = layer.word_bits - 1 - lo_off;
      lo_off = new_lo;
    }
    uint64_t width = hi_off - lo_off + 1;
    uint64_t mask = (width >= 64 ? ~0ULL : ((uint64_t{1} << width) - 1))
                    << lo_off;
    if (word & mask) return true;
  }
  return false;
}

bool BloomRF::MayContain(uint64_t key, ProbeStats* stats) const {
  const uint64_t offset = key - config_.key_base;
  return offset <= max_offset_ && ProbeOffset(offset, stats);
}

bool BloomRF::ProbeOffset(uint64_t key, ProbeStats* stats) const {
  if (config_.has_exact_layer && !exact_.TestBit(Shr(key, top_level_))) {
    if (stats) ++stats->bit_probes;
    return false;
  }
  for (size_t i = layers_.size(); i-- > 0;) {
    if (!TestPrefix(layers_[i], Shr(key, layers_[i].level), stats)) {
      return false;
    }
  }
  return true;
}

void BloomRF::MayContainBatch(std::span<const uint64_t> keys,
                              bool* out) const {
  if (keys.empty()) return;
  // One probe slot per (layer, replica); the planning pass resolves
  // each slot of each key to its final bit position, so the probe pass
  // neither hashes nor derives slots.
  const size_t num_layers = layers_.size();
  std::vector<uint32_t> slot_base(num_layers);
  size_t num_slots = 0;
  for (size_t i = 0; i < num_layers; ++i) {
    slot_base[i] = static_cast<uint32_t>(num_slots);
    num_slots += layers_[i].replicas;
  }
  std::vector<uint64_t> pos(num_slots * kProbeStripe);  // key-major
  uint64_t exact_pos[kProbeStripe] = {};
  bool in_domain[kProbeStripe] = {};

  for (size_t first = 0; first < keys.size(); first += kProbeStripe) {
    const size_t stripe = std::min(kProbeStripe, keys.size() - first);
    // Pass 1: rebase each key; for those in the domain, hash every
    // (key, layer) word key once, derive each replica's bit position,
    // and start pulling its block into cache.
    for (size_t j = 0; j < stripe; ++j) {
      uint64_t key = keys[first + j] - config_.key_base;
      in_domain[j] = key <= max_offset_;
      if (!in_domain[j]) continue;
      uint64_t* key_pos = &pos[j * num_slots];
      if (config_.has_exact_layer) {
        exact_pos[j] = Shr(key, top_level_);
        exact_.PrefetchBit(exact_pos[j]);
      }
      for (size_t i = 0; i < num_layers; ++i) {
        const Layer& layer = layers_[i];
        const BitArray& seg = segments_[layer.segment];
        uint64_t word_key = Shr(key, layer.level + layer.offset_bits);
        uint64_t h = Hash64(word_key, layer.seed_base);
        uint64_t offset = Shr(key, layer.level) & (layer.word_bits - 1);
        if (WordReversed(layer, word_key)) {
          offset = layer.word_bits - 1 - offset;
        }
        for (uint32_t r = 0; r < layer.replicas; ++r) {
          uint64_t bitpos =
              SlotFromHash(h, r, layer.num_slots) * layer.word_bits + offset;
          key_pos[slot_base[i] + r] = bitpos;
          seg.PrefetchBit(bitpos);
        }
      }
    }
    // Pass 2: the tests of the scalar MayContain in its order (exact
    // layer, then layers top-down), key by key with early exit, on
    // lines already in flight.
    for (size_t j = 0; j < stripe; ++j) {
      const uint64_t* key_pos = &pos[j * num_slots];
      bool alive = in_domain[j] &&
                   (!config_.has_exact_layer || exact_.TestBit(exact_pos[j]));
      for (size_t i = num_layers; alive && i-- > 0;) {
        const BitArray& seg = segments_[layers_[i].segment];
        for (uint32_t r = 0; alive && r < layers_[i].replicas; ++r) {
          alive = seg.TestBit(key_pos[slot_base[i] + r]);
        }
      }
      out[first + j] = alive;
    }
  }
}

bool BloomRF::ExactRangeProbe(uint64_t lp, uint64_t rp,
                              ProbeStats* stats) const {
  if (lp > rp) return false;
  if (rp - lp + 1 > config_.max_exact_scan_bits) return true;  // conservative
  if (stats) stats->word_probes += (rp - lp) / 64 + 1;
  return exact_.AnyInRange(lp, rp);
}

bool BloomRF::MayContainRange(uint64_t lo, uint64_t hi,
                              ProbeStats* stats) const {
  // Clip to the domain; keys are stored as offsets from its base.
  const uint64_t base = config_.key_base;
  lo = std::max(lo, base);
  hi = std::min(hi, base + max_offset_);
  if (lo > hi) return false;
  return ProbeOffsetRange(lo - base, hi - base, stats);
}

bool BloomRF::ProbeOffsetRange(uint64_t lo, uint64_t hi,
                               ProbeStats* stats) const {
  if (lo == hi) return ProbeOffset(lo, stats);

  // --- Top boundary: exact layer if present, otherwise levels at or
  // above TopLevel() are treated as saturated coverings.
  bool split = false;
  bool left_alive = true;
  bool right_alive = true;
  if (config_.has_exact_layer) {
    uint64_t lp = Shr(lo, top_level_);
    uint64_t rp = Shr(hi, top_level_);
    if (lp == rp) {
      if (!exact_.TestBit(lp)) return false;
      if (stats) ++stats->bit_probes;
    } else {
      // Middle DIs at the exact level lie fully inside [lo, hi].
      if (rp - lp >= 2 && ExactRangeProbe(lp + 1, rp - 1, stats)) return true;
      if (stats) stats->bit_probes += 2;
      left_alive = exact_.TestBit(lp);
      right_alive = exact_.TestBit(rp);
      if (!left_alive && !right_alive) return false;
      split = true;
    }
  }

  // --- Descend hash layers top to bottom (Algorithm 1).
  for (size_t idx = layers_.size(); idx-- > 0;) {
    const Layer& layer = layers_[idx];
    uint32_t level = layer.level;
    uint32_t parent_level =
        (idx + 1 < layers_.size()) ? layers_[idx + 1].level : top_level_;
    uint64_t lp = Shr(lo, level);
    uint64_t rp = Shr(hi, level);

    if (!split) {
      uint64_t parent_lp = Shr(lo, parent_level);
      uint64_t parent_rp = Shr(hi, parent_level);
      if (lp == rp) {
        // Phase 1: single covering (Fig. 7). A zero bit proves the
        // whole interval empty — early stop.
        if (!TestPrefix(layer, lp, stats)) return false;
        continue;
      }
      // The covering path splits within this layer's span. Middle
      // prefixes [lp+1, rp-1] are decomposition DIs: any set bit is a
      // positive. When the parents already differ (possible only at
      // the topmost stored layer), the scan is capped.
      uint64_t max_words =
          (parent_lp == parent_rp) ? 2 : config_.max_top_layer_words;
      if (rp - lp >= 2 &&
          TestPrefixRange(layer, lp + 1, rp - 1, max_words, stats)) {
        return true;
      }
      left_alive = TestPrefix(layer, lp, stats);
      right_alive = TestPrefix(layer, rp, stats);
      if (level == 0) return left_alive || right_alive;
      if (!left_alive && !right_alive) return false;
      split = true;
      continue;
    }

    // Phase 2: two independent key paths. Decomposition DIs of the
    // left path are the prefixes from lp(+1) to the end of the
    // left-parent covering; mirror-inverted for the right path. Each
    // range lies within one parent, hence spans at most two words.
    uint32_t span = parent_level - level;  // == delta of the layer above
    if (left_alive) {
      uint64_t parent = Shr(lo, parent_level);
      uint64_t end = (parent << span) | ((uint64_t{1} << span) - 1);
      uint64_t start = (level == 0) ? lp : lp + 1;
      if (start <= end && TestPrefixRange(layer, start, end, 4, stats)) {
        return true;
      }
      if (level != 0) left_alive = TestPrefix(layer, lp, stats);
    }
    if (right_alive) {
      uint64_t parent = Shr(hi, parent_level);
      uint64_t start = parent << span;
      // rp >= start always (start just clears rp's low `span` bits) and
      // rp >= 1 below a split, so `end` cannot underflow; the range is
      // empty exactly when rp == start at a non-bottom level.
      uint64_t end = (level == 0) ? rp : rp - 1;
      if (start <= end && TestPrefixRange(layer, start, end, 4, stats)) {
        return true;
      }
      if (level != 0) right_alive = TestPrefix(layer, rp, stats);
    }
    if (level == 0) return false;
    if (!left_alive && !right_alive) return false;
  }
  // The bottom layer always has level 0, so control cannot reach here;
  // stay conservative if it ever does.
  return true;
}

uint64_t BloomRF::MemoryBits() const {
  uint64_t total = config_.has_exact_layer ? exact_.size_bits() : 0;
  for (const BitArray& seg : segments_) total += seg.size_bits();
  return total;
}

std::vector<double> BloomRF::ZeroBitFractions() const {
  std::vector<double> fractions;
  for (const BitArray& seg : segments_) {
    fractions.push_back(
        1.0 - static_cast<double>(seg.CountOnes()) /
                  static_cast<double>(seg.size_bits()));
  }
  if (config_.has_exact_layer) {
    fractions.push_back(1.0 -
                        static_cast<double>(exact_.CountOnes()) /
                            static_cast<double>(exact_.size_bits()));
  }
  return fractions;
}

std::string BloomRF::Serialize() const {
  std::string out;
  PutFixed32(&out, kFormatTagV3);
  PutFixed32(&out, config_.domain_bits);
  PutFixed32(&out, static_cast<uint32_t>(config_.num_layers()));
  for (size_t i = 0; i < config_.num_layers(); ++i) {
    out.push_back(static_cast<char>(config_.delta[i]));
    out.push_back(static_cast<char>(config_.replicas[i]));
    out.push_back(static_cast<char>(config_.segment_of[i]));
  }
  PutFixed32(&out, static_cast<uint32_t>(config_.segment_bits.size()));
  for (uint64_t m : config_.segment_bits) PutFixed64(&out, m);
  out.push_back(config_.has_exact_layer ? 1 : 0);
  out.push_back(config_.permute_words ? 1 : 0);
  out.push_back(static_cast<char>(kSchemeDoubleHash));
  PutFixed64(&out, config_.seed);
  PutFixed64(&out, config_.key_base);
  for (const BitArray& seg : segments_) seg.SerializeTo(&out);
  if (config_.has_exact_layer) exact_.SerializeTo(&out);
  return out;
}

std::optional<BloomRF> BloomRF::Deserialize(std::string_view data) {
  // Every read is bounds-checked, and all bit-array sizes are validated
  // against the remaining payload BEFORE any allocation, so corrupt or
  // truncated input can neither over-read nor trigger huge allocations.
  size_t pos = 0;
  auto need = [&](uint64_t n) {
    return n <= data.size() && pos <= data.size() - static_cast<size_t>(n);
  };
  if (!need(12)) return std::nullopt;
  uint32_t tag = DecodeFixed32(data.data());
  if (tag != kFormatTagV3) return std::nullopt;
  BloomRFConfig cfg;
  cfg.domain_bits = DecodeFixed32(data.data() + 4);
  uint32_t k = DecodeFixed32(data.data() + 8);
  pos = 12;
  if (k == 0 || k > 64 || !need(3 * uint64_t{k})) return std::nullopt;
  for (uint32_t i = 0; i < k; ++i) {
    cfg.delta.push_back(static_cast<uint8_t>(data[pos++]));
    cfg.replicas.push_back(static_cast<uint8_t>(data[pos++]));
    cfg.segment_of.push_back(static_cast<uint8_t>(data[pos++]));
  }
  if (!need(4)) return std::nullopt;
  uint32_t nseg = DecodeFixed32(data.data() + pos);
  pos += 4;
  if (nseg == 0 || nseg > 16 || !need(8 * uint64_t{nseg})) {
    return std::nullopt;
  }
  for (uint32_t j = 0; j < nseg; ++j) {
    cfg.segment_bits.push_back(DecodeFixed64(data.data() + pos));
    pos += 8;
  }
  if (!need(19)) return std::nullopt;
  cfg.has_exact_layer = data[pos++] != 0;
  cfg.permute_words = data[pos++] != 0;
  if (static_cast<uint8_t>(data[pos++]) != kSchemeDoubleHash) {
    return std::nullopt;
  }
  cfg.seed = DecodeFixed64(data.data() + pos);
  cfg.key_base = DecodeFixed64(data.data() + pos + 8);
  pos += 16;
  if (!cfg.Validate().empty()) return std::nullopt;

  // The payload must hold exactly the bit arrays the config describes
  // (segments rounded up to 64-bit blocks, as the constructor does).
  uint64_t expected_bytes = 0;
  for (uint64_t m : cfg.segment_bits) {
    if (m > (uint64_t{1} << 48)) return std::nullopt;  // absurd claim
    expected_bytes += ((m + 63) & ~63ULL) / 8;
  }
  if (cfg.has_exact_layer) {
    expected_bytes += ((cfg.ExactBits() + 63) & ~63ULL) / 8;
  }
  if (!need(expected_bytes) || data.size() - pos != expected_bytes) {
    return std::nullopt;
  }

  BloomRF filter(cfg);
  for (size_t j = 0; j < filter.segments_.size(); ++j) {
    uint64_t bytes = filter.segments_[j].size_bytes();
    if (!need(bytes) ||
        !filter.segments_[j].DeserializeFrom(filter.segments_[j].size_bits(),
                                             data.substr(pos, bytes))) {
      return std::nullopt;
    }
    pos += bytes;
  }
  if (cfg.has_exact_layer) {
    uint64_t bytes = filter.exact_.size_bytes();
    if (!need(bytes) ||
        !filter.exact_.DeserializeFrom(filter.exact_.size_bits(),
                                       data.substr(pos, bytes))) {
      return std::nullopt;
    }
    pos += bytes;
  }
  return filter;
}

}  // namespace bloomrf
