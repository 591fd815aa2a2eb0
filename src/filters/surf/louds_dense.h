// LOUDS-Dense level encoding for SuRF (paper [49]).
//
// Each node of a dense level occupies two 256-bit bitmaps: `labels`
// (which byte-labels exist) and `has_child` (which of those continue
// below). Edge position = node*256 + label. Child ordinals and suffix
// ordinals are rank queries over the bitmaps. Dense levels trade space
// for O(1) label lookup and are used for the top of the trie.

#ifndef BLOOMRF_FILTERS_SURF_LOUDS_DENSE_H_
#define BLOOMRF_FILTERS_SURF_LOUDS_DENSE_H_

#include <cstdint>

#include "filters/surf/surf_builder.h"
#include "util/bit_vector.h"

namespace bloomrf {

class LoudsDenseLevel {
 public:
  LoudsDenseLevel() = default;

  /// Encodes one builder level.
  void Encode(const SurfBuilderLevel& level);

  uint64_t num_nodes() const { return num_nodes_; }

  static constexpr uint64_t kFanout = 256;

  bool EdgeHasChild(uint64_t node, uint8_t label) const {
    return has_child_.Get(node * kFanout + label);
  }

  /// Ordinal of the edge's child among all child edges of the level
  /// (== node ordinal on the next level).
  uint64_t ChildOrdinal(uint64_t node, uint8_t label) const {
    return has_child_.Rank1(node * kFanout + label);
  }

  /// Ordinal of the edge's suffix among all terminal edges of the level.
  uint64_t SuffixOrdinal(uint64_t node, uint8_t label) const {
    uint64_t pos = node * kFanout + label;
    return labels_.Rank1(pos) - has_child_.Rank1(pos);
  }

  /// Smallest existing label >= `label` in `node`, or -1.
  int FindLabelGE(uint64_t node, uint32_t label) const {
    if (label >= kFanout) return -1;
    uint64_t pos = labels_.NextOne(node * kFanout + label);
    if (pos >= (node + 1) * kFanout || pos >= labels_.size()) return -1;
    return static_cast<int>(pos - node * kFanout);
  }

  uint64_t SizeBits() const {
    return labels_.SizeBits() + has_child_.SizeBits();
  }

  /// Logical size per the paper's accounting: 2*256 bits per node.
  uint64_t LogicalBits() const { return num_nodes_ * 2 * kFanout; }

  void SerializeTo(std::string* dst) const;
  bool DeserializeFrom(std::string_view src, size_t* pos);

 private:
  BitVector labels_;
  BitVector has_child_;
  uint64_t num_nodes_ = 0;
};

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_SURF_LOUDS_DENSE_H_
