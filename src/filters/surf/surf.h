// SuRF: practical range-query filtering with fast succinct tries
// (Zhang et al., SIGMOD'18; paper [49]) — the trie-based point-range
// filter baseline of the bloomRF evaluation.
//
// The filter is an *offline* structure (paper Problem 2): it is built
// once from the sorted key set. Keys are truncated at their
// distinguishing byte; the top levels of the trie are encoded
// LOUDS-Dense, the rest LOUDS-Sparse. Optional per-key suffixes control
// the point-FPR / space trade-off:
//   SuRF-Base (kNone)  — no suffix,
//   SuRF-Hash (kHash)  — h hashed key bits: point queries improve,
//   SuRF-Real (kReal)  — r real key bits: both point and range improve.
//
// Range queries position an iterator at the smallest stored key >= lo
// and compare its (truncated) reconstruction against hi; all
// approximation errors are one-sided (no false negatives).

#ifndef BLOOMRF_FILTERS_SURF_SURF_H_
#define BLOOMRF_FILTERS_SURF_SURF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "filters/filter.h"
#include "filters/surf/louds_dense.h"
#include "filters/surf/louds_sparse.h"
#include "filters/surf/surf_builder.h"

namespace bloomrf {

class Surf : public PointRangeFilter {
 public:
  struct Options {
    SurfSuffixType suffix_type = SurfSuffixType::kHash;
    uint32_t suffix_bits = 8;
    /// Levels are LOUDS-Dense while their cumulative dense size stays
    /// below total-sparse-size / dense_size_ratio (SuRF's size-ratio
    /// heuristic).
    uint32_t dense_size_ratio = 16;
  };

  /// Builds from sorted unique uint64 keys (big-endian byte mapping).
  static Surf BuildFromU64(const std::vector<uint64_t>& sorted_keys,
                           const Options& options);

  /// Builds from sorted unique byte strings. A 0x00 terminator is
  /// appended internally so arbitrary unique sets become prefix-free.
  static Surf BuildFromStrings(const std::vector<std::string>& sorted_keys,
                               const Options& options);

  std::string Name() const override { return "SuRF"; }

  bool MayContain(uint64_t key) const override;
  bool MayContainRange(uint64_t lo, uint64_t hi) const override;

  bool MayContainString(std::string_view key) const;
  bool MayContainStringRange(std::string_view lo, std::string_view hi) const;

  /// Logical size per the paper's accounting: 512 bits per dense node,
  /// 10 bits per sparse edge, suffix_bits per key.
  uint64_t MemoryBits() const override;

  /// Serializes the succinct structure (LSM filter blocks); rank/
  /// select directories are rebuilt on load.
  std::string Serialize() const override;
  static std::optional<Surf> Deserialize(std::string_view data);

  uint64_t num_keys() const { return num_keys_; }
  uint32_t height() const { return height_; }
  uint32_t dense_levels() const { return dense_levels_; }

 private:
  struct SeekResult {
    bool found = false;
    std::string prefix;   // reconstructed truncated key (incl. terminal)
    uint64_t suffix = 0;  // stored suffix value of the leaf
  };
  struct Frame {
    uint64_t node;
    uint64_t pos;
  };

  Surf() = default;

  static Surf BuildCore(const std::vector<std::string>& keys,
                        const Options& options);

  bool LevelIsDense(uint32_t level) const { return level < dense_levels_; }

  // --- unified edge navigation (pos is dense node*256+label or sparse
  // edge index) ---
  bool EdgeHasChild(uint32_t level, uint64_t pos) const;
  uint64_t ChildOrdinal(uint32_t level, uint64_t pos) const;
  uint8_t EdgeLabel(uint32_t level, uint64_t pos) const;
  uint64_t SuffixValue(uint32_t level, uint64_t pos) const;
  /// Smallest edge with label >= c in node; returns false if none.
  bool FindEdgeGE(uint32_t level, uint64_t node, uint32_t c,
                  uint64_t* pos) const;
  /// Next edge after `pos` within `node`; false if `pos` was the last.
  bool NextEdgeInNode(uint32_t level, uint64_t node, uint64_t pos,
                      uint64_t* next) const;

  bool LookupBytes(const std::string& key) const;
  bool RangeBytes(const std::string& lo, const std::string& hi) const;

  SeekResult SeekGE(const std::string& key) const;
  SeekResult DescendLeftmost(uint32_t level, uint64_t node,
                             std::string prefix) const;
  SeekResult DescendLeftmostFromEdge(uint32_t level, uint64_t pos,
                                     std::string prefix) const;
  SeekResult AdvanceAndDescend(std::vector<Frame>& frames, uint32_t level,
                               uint64_t node, uint64_t pos,
                               std::string prefix) const;

  Options options_;
  uint32_t height_ = 0;
  uint32_t dense_levels_ = 0;
  std::vector<LoudsDenseLevel> dense_;
  std::vector<LoudsSparseLevel> sparse_;  // index = level - dense_levels_
  std::vector<std::vector<uint64_t>> suffixes_;  // per level, terminal order
  uint64_t num_keys_ = 0;
  bool string_mode_ = false;
};

}  // namespace bloomrf

#endif  // BLOOMRF_FILTERS_SURF_SURF_H_
