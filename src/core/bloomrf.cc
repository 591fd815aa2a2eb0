#include "core/bloomrf.h"

#include <algorithm>
#include <cassert>

#include "util/coding.h"
#include "util/hash.h"

namespace bloomrf {

namespace {

// Serialized format tag, followed later in the header by the
// hash-scheme byte. The only scheme is hash-once double hashing (1);
// any other tag or scheme byte is rejected.
constexpr uint32_t kFormatTagV2 = 0xb100f002;
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
  uint64_t word_key = Shr(key, layer.level + layer.offset_bits);
  return SlotFromHash(Hash64(word_key, layer.seed_base), replica,
                      layer.num_slots);
}

void BloomRF::Insert(uint64_t key) {
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

uint64_t BloomRF::WordMaskFor(const Layer& layer, uint64_t wk, uint64_t x,
                              uint64_t y) const {
  uint64_t base = wk << layer.offset_bits;
  uint64_t lo_off = (x > base) ? x - base : 0;
  uint64_t hi_off =
      std::min<uint64_t>(y - base, layer.word_bits - 1);
  if (WordReversed(layer, wk)) {
    uint64_t new_lo = layer.word_bits - 1 - hi_off;
    hi_off = layer.word_bits - 1 - lo_off;
    lo_off = new_lo;
  }
  uint64_t width = hi_off - lo_off + 1;
  return (width >= 64 ? ~0ULL : ((uint64_t{1} << width) - 1)) << lo_off;
}

bool BloomRF::TestPrefixRange(const Layer& layer, uint64_t x, uint64_t y,
                              uint64_t max_words, ProbeStats* stats) const {
  if (x > y) return false;
  uint64_t first_word = x >> layer.offset_bits;
  uint64_t last_word = y >> layer.offset_bits;
  if (last_word - first_word + 1 > max_words) return true;  // conservative
  for (uint64_t wk = first_word; wk <= last_word; ++wk) {
    if (stats) ++stats->word_probes;
    if (LoadWordAnd(layer, wk) & WordMaskFor(layer, wk, x, y)) return true;
  }
  return false;
}

bool BloomRF::MayContain(uint64_t key, ProbeStats* stats) const {
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

  for (size_t base = 0; base < keys.size(); base += kProbeStripe) {
    const size_t stripe = std::min(kProbeStripe, keys.size() - base);
    // Pass 1: hash every (key, layer) word key once, derive each
    // replica's bit position, and start pulling its block into cache.
    for (size_t j = 0; j < stripe; ++j) {
      uint64_t key = keys[base + j];
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
      bool alive = !config_.has_exact_layer || exact_.TestBit(exact_pos[j]);
      for (size_t i = num_layers; alive && i-- > 0;) {
        const BitArray& seg = segments_[layers_[i].segment];
        for (uint32_t r = 0; alive && r < layers_[i].replicas; ++r) {
          alive = seg.TestBit(key_pos[slot_base[i] + r]);
        }
      }
      out[base + j] = alive;
    }
  }
}

// ---------------------------------------------------------------------
// Lockstep batched range descent.
//
// All queries of a stripe descend the layer ladder together. At each
// layer the engine first PLANS every live query — the word keys a
// descent touches at a layer are a pure function of (lo, hi), the
// split state, and which endpoint paths are still alive, so planning
// hashes each word once, resolves every replica to a final (block,
// shift, mask) probe unit, and prefetches the block — then TESTS the
// compiled units on lines already in flight. Queries answered at a
// layer retire immediately, so no deeper layer is planned for them:
// the planned work tracks the scalar descent's early exits exactly,
// one layer behind at most.
//
// Rare shapes the unit encoding cannot hold (a range splitting at the
// exact layer, a top-layer middle scan wider than the unit buffer,
// more replicas than kRangeMaxRep) fall back to the scalar
// MayContainRange, so every answer matches the scalar probe bit for
// bit by construction.

namespace {

constexpr uint32_t kRangeMaxRep = 4;    // replica cap of a probe unit
constexpr uint32_t kRangeMaxUnits = 14;  // per (query, layer)

/// One compiled word test: AND the (right-shifted) replica blocks,
/// mask, test nonzero — exactly LoadWordAnd + mask of the scalar path.
struct RangeUnit {
  uint64_t mask;  // in-word mask, right-aligned
  uint32_t nrep;
  uint64_t blk[kRangeMaxRep];
  uint32_t shift[kRangeMaxRep];
};

enum RangeShape : uint8_t { kCover = 0, kSplitLayer = 1, kPhase2 = 2 };

struct RangeQuery {
  uint64_t lo, hi;
  uint32_t slot;  // index within the stripe (output position)
  bool split, left_alive, right_alive;
  // Current layer's compiled probes.
  const uint64_t* seg;
  uint32_t level;
  uint8_t shape;
  uint8_t n[4];  // group unit counts, in evaluation order
  RangeUnit units[kRangeMaxUnits];
};

inline bool RangeUnitHit(const RangeQuery& q, const RangeUnit& u) {
  uint64_t w = q.seg[u.blk[0]] >> u.shift[0];
  for (uint32_t r = 1; r < u.nrep && w != 0; ++r) {
    w &= q.seg[u.blk[r]] >> u.shift[r];
  }
  return (w & u.mask) != 0;
}

}  // namespace

void BloomRF::MayContainRangeBatch(std::span<const uint64_t> los,
                                   std::span<const uint64_t> his,
                                   bool* out) const {
  assert(los.size() == his.size());
  if (los.empty()) return;
  const size_t num_layers = layers_.size();

  RangeQuery queries[kRangeStripe];
  uint32_t alive[kRangeStripe];
  uint32_t fallback[kRangeStripe];

  // Emits the unit testing word `wk` against `in_mask` at `layer`;
  // false when the unit buffer or replica cap is exceeded (fallback).
  uint32_t emit_count = 0;
  auto emit = [&](RangeQuery& q, const Layer& layer, uint64_t wk,
                  uint64_t in_mask) {
    if (layer.replicas > kRangeMaxRep || emit_count >= kRangeMaxUnits) {
      return false;
    }
    RangeUnit& u = q.units[emit_count++];
    u.mask = in_mask;
    u.nrep = layer.replicas;
    const BitArray& seg = segments_[layer.segment];
    uint64_t h = Hash64(wk, layer.seed_base);
    for (uint32_t r = 0; r < layer.replicas; ++r) {
      uint64_t bitbase = SlotFromHash(h, r, layer.num_slots) * layer.word_bits;
      u.blk[r] = bitbase >> 6;
      u.shift[r] = static_cast<uint32_t>(bitbase & 63);
      seg.PrefetchBlock(bitbase >> 6);
    }
    return true;
  };
  auto emit_bit = [&](RangeQuery& q, const Layer& layer, uint64_t p) {
    return emit(q, layer, p >> layer.offset_bits,
                uint64_t{1} << ProbeOffsetFor(layer, p));
  };

  // Plans layer `idx` of `q`. Returns: 0 planned, 1 answered (in
  // *answer), 2 fallback.
  auto plan_layer = [&](RangeQuery& q, size_t idx, bool* answer) -> int {
    const Layer& layer = layers_[idx];
    const uint32_t level = layer.level;
    const uint32_t parent_level = (idx + 1 < num_layers)
                                      ? layers_[idx + 1].level
                                      : top_level_;
    const uint64_t lp = Shr(q.lo, level);
    const uint64_t rp = Shr(q.hi, level);
    q.seg = segments_[layer.segment].raw_blocks();
    q.level = level;
    emit_count = 0;
    q.n[0] = q.n[1] = q.n[2] = q.n[3] = 0;
    if (!q.split) {
      if (lp == rp) {
        // Phase 1: single covering (Fig. 7).
        q.shape = kCover;
        if (!emit_bit(q, layer, lp)) return 2;
        q.n[0] = 1;
        return 0;
      }
      // The covering path splits within this layer's span. Middle
      // prefixes [lp+1, rp-1] are decomposition DIs; the scan is
      // capped when the parents already differ (topmost layer only).
      q.shape = kSplitLayer;
      uint64_t max_words = (Shr(q.lo, parent_level) == Shr(q.hi, parent_level))
                               ? 2
                               : config_.max_top_layer_words;
      if (rp - lp >= 2) {
        uint64_t x = lp + 1, y = rp - 1;
        uint64_t first_word = x >> layer.offset_bits;
        uint64_t last_word = y >> layer.offset_bits;
        if (last_word - first_word + 1 > max_words) {
          *answer = true;  // conservative, exactly like TestPrefixRange
          return 1;
        }
        if (last_word - first_word + 1 > kRangeMaxUnits - 2) return 2;
        for (uint64_t wk = first_word; wk <= last_word; ++wk) {
          if (!emit(q, layer, wk, WordMaskFor(layer, wk, x, y))) return 2;
        }
        q.n[0] = static_cast<uint8_t>(emit_count);
      }
      if (!emit_bit(q, layer, lp) || !emit_bit(q, layer, rp)) return 2;
      q.n[1] = 1;
      q.n[2] = 1;
      return 0;
    }
    // Phase 2: two independent key paths (see MayContainRange).
    q.shape = kPhase2;
    const uint32_t span = parent_level - level;
    if (q.left_alive) {
      uint64_t parent = Shr(q.lo, parent_level);
      uint64_t end = (parent << span) | ((uint64_t{1} << span) - 1);
      uint64_t start = (level == 0) ? lp : lp + 1;
      if (start <= end) {
        uint64_t first_word = start >> layer.offset_bits;
        uint64_t last_word = end >> layer.offset_bits;
        if (last_word - first_word + 1 > 4) {
          *answer = true;
          return 1;
        }
        for (uint64_t wk = first_word; wk <= last_word; ++wk) {
          if (!emit(q, layer, wk, WordMaskFor(layer, wk, start, end))) {
            return 2;
          }
        }
        q.n[0] = static_cast<uint8_t>(emit_count);
      }
      if (level != 0) {
        if (!emit_bit(q, layer, lp)) return 2;
        q.n[1] = 1;
      }
    }
    if (q.right_alive) {
      uint64_t parent = Shr(q.hi, parent_level);
      uint64_t start = parent << span;
      uint64_t end = (level == 0) ? rp : rp - 1;
      uint32_t before = emit_count;
      if (start <= end) {
        uint64_t first_word = start >> layer.offset_bits;
        uint64_t last_word = end >> layer.offset_bits;
        if (last_word - first_word + 1 > 4) {
          *answer = true;
          return 1;
        }
        for (uint64_t wk = first_word; wk <= last_word; ++wk) {
          if (!emit(q, layer, wk, WordMaskFor(layer, wk, start, end))) {
            return 2;
          }
        }
        q.n[2] = static_cast<uint8_t>(emit_count - before);
      }
      if (level != 0) {
        if (!emit_bit(q, layer, rp)) return 2;
        q.n[3] = 1;
      }
    }
    return 0;
  };

  // Tests the compiled units of `q`'s current layer, in scalar probe
  // order. Returns true when the query is answered (in *answer).
  auto test_layer = [](RangeQuery& q, bool* answer) {
    const RangeUnit* u = q.units;
    switch (q.shape) {
      case kCover:
        if (!RangeUnitHit(q, u[0])) {
          *answer = false;
          return true;
        }
        return false;
      case kSplitLayer: {
        for (uint32_t k = 0; k < q.n[0]; ++k) {
          if (RangeUnitHit(q, *u++)) {
            *answer = true;
            return true;
          }
        }
        q.left_alive = RangeUnitHit(q, *u++);
        q.right_alive = RangeUnitHit(q, *u++);
        if (q.level == 0) {
          *answer = q.left_alive || q.right_alive;
          return true;
        }
        if (!q.left_alive && !q.right_alive) {
          *answer = false;
          return true;
        }
        q.split = true;
        return false;
      }
      default: {  // kPhase2
        for (uint32_t k = 0; k < q.n[0]; ++k) {
          if (RangeUnitHit(q, *u++)) {
            *answer = true;
            return true;
          }
        }
        if (q.n[1] != 0) q.left_alive = RangeUnitHit(q, *u++);
        for (uint32_t k = 0; k < q.n[2]; ++k) {
          if (RangeUnitHit(q, *u++)) {
            *answer = true;
            return true;
          }
        }
        if (q.n[3] != 0) q.right_alive = RangeUnitHit(q, *u++);
        if (q.level == 0) {
          *answer = false;
          return true;
        }
        if (!q.left_alive && !q.right_alive) {
          *answer = false;
          return true;
        }
        return false;
      }
    }
  };

  for (size_t base = 0; base < los.size(); base += kRangeStripe) {
    const size_t stripe = std::min(kRangeStripe, los.size() - base);
    size_t n_alive = 0, n_fallback = 0;
    // Admission + exact-layer plan: the descent's first test is the
    // exact covering bit and needs no hashing. Point queries (lo ==
    // hi) join the lockstep as always-covering descents — the same
    // tests MayContain runs. Ranges splitting at the exact level are
    // the one exact-layer shape the units cannot express: fall back.
    for (size_t j = 0; j < stripe; ++j) {
      uint64_t lo = los[base + j], hi = his[base + j];
      if (lo > hi) {
        out[base + j] = false;
        continue;
      }
      if (config_.has_exact_layer) {
        uint64_t lp = Shr(lo, top_level_), rp = Shr(hi, top_level_);
        if (lp != rp) {
          fallback[n_fallback++] = static_cast<uint32_t>(j);
          continue;
        }
        exact_.PrefetchBit(lp);
      }
      RangeQuery& q = queries[n_alive];
      q.lo = lo;
      q.hi = hi;
      q.slot = static_cast<uint32_t>(j);
      q.split = false;
      q.left_alive = q.right_alive = true;
      alive[n_alive] = static_cast<uint32_t>(n_alive);
      ++n_alive;
    }
    if (config_.has_exact_layer) {
      size_t kept = 0;
      for (size_t a = 0; a < n_alive; ++a) {
        RangeQuery& q = queries[alive[a]];
        if (exact_.TestBit(Shr(q.lo, top_level_))) {
          alive[kept++] = alive[a];
        } else {
          out[base + q.slot] = false;
        }
      }
      n_alive = kept;
    }
    // Lockstep descent: plan a layer for every live query, then test
    // it on lines already in flight; retire answers between layers.
    for (size_t idx = num_layers; n_alive != 0 && idx-- > 0;) {
      size_t kept = 0;
      for (size_t a = 0; a < n_alive; ++a) {
        RangeQuery& q = queries[alive[a]];
        bool answer;
        switch (plan_layer(q, idx, &answer)) {
          case 0:
            alive[kept++] = alive[a];
            break;
          case 1:
            out[base + q.slot] = answer;
            break;
          default:
            fallback[n_fallback++] = q.slot;
        }
      }
      n_alive = kept;
      kept = 0;
      for (size_t a = 0; a < n_alive; ++a) {
        RangeQuery& q = queries[alive[a]];
        bool answer;
        if (test_layer(q, &answer)) {
          out[base + q.slot] = answer;
        } else {
          alive[kept++] = alive[a];
        }
      }
      n_alive = kept;
    }
    // Survivors passed every covering down to level 0: only point
    // queries (lo == hi) can get here — a full MayContain positive.
    for (size_t a = 0; a < n_alive; ++a) {
      out[base + queries[alive[a]].slot] = true;
    }
    for (size_t f = 0; f < n_fallback; ++f) {
      uint32_t j = fallback[f];
      out[base + j] = MayContainRange(los[base + j], his[base + j]);
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
  if (lo > hi) return false;
  if (lo == hi) return MayContain(lo, stats);

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
  PutFixed32(&out, kFormatTagV2);
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
  if (tag != kFormatTagV2) return std::nullopt;
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
  if (!need(11)) return std::nullopt;
  cfg.has_exact_layer = data[pos++] != 0;
  cfg.permute_words = data[pos++] != 0;
  if (static_cast<uint8_t>(data[pos++]) != kSchemeDoubleHash) {
    return std::nullopt;
  }
  cfg.seed = DecodeFixed64(data.data() + pos);
  pos += 8;
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
