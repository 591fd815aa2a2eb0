#include "lsm/merging_iterator.h"

#include <algorithm>

namespace bloomrf {

namespace {

// std heap order for a min-heap: the front is the smallest key, and on
// equal keys the newest source (lowest rank).
template <typename Entry>
bool After(const Entry& a, const Entry& b) {
  return a.key != b.key ? a.key > b.key : a.rank > b.rank;
}

}  // namespace

void MergingIterator::AddMemTable(const MemTable& mem) {
  sources_.push_back({&mem, nullptr});
}

void MergingIterator::AddTable(const TableReader& table,
                               TableReader::ReadMode mode, LsmStats* stats) {
  sources_.push_back({nullptr, &table, mode, stats});
}

void MergingIterator::Seek(uint64_t lo) {
  cursors_.clear();
  heap_.clear();
  ok_ = true;
  cursors_.reserve(sources_.size());
  for (const Source& s : sources_) {
    if (s.mem != nullptr) {
      cursors_.emplace_back(std::in_place_type<MemTable::Iterator>, *s.mem,
                            lo);
    } else {
      cursors_.emplace_back(std::in_place_type<TableReader::Iterator>,
                            *s.table, s.mode, s.stats, lo);
    }
  }
  for (uint32_t rank = 0; rank < cursors_.size(); ++rank) Push(rank);
}

std::string_view MergingIterator::value() const {
  return std::visit([](const auto& it) { return it.value(); },
                    cursors_[heap_.front().rank]);
}

bool MergingIterator::tombstone() const {
  return std::visit([](const auto& it) { return it.tombstone(); },
                    cursors_[heap_.front().rank]);
}

void MergingIterator::Next() {
  // Every source holding the current key advances: the newest one
  // yielded it, the older ones hold shadowed versions. Each cursor's
  // next key is larger, so it is not popped again in this loop.
  const uint64_t current = key();
  do {
    std::pop_heap(heap_.begin(), heap_.end(), After<HeapEntry>);
    const uint32_t rank = heap_.back().rank;
    heap_.pop_back();
    std::visit([](auto& it) { it.Next(); }, cursors_[rank]);
    Push(rank);
  } while (!heap_.empty() && heap_.front().key == current);
}

bool MergingIterator::SourceInRange(size_t rank) const {
  return std::visit(
      [this](const auto& it) { return it.Valid() && it.key() <= hi_; },
      cursors_[rank]);
}

void MergingIterator::Push(uint32_t rank) {
  const Cursor& cursor = cursors_[rank];
  if (const auto* table = std::get_if<TableReader::Iterator>(&cursor);
      table != nullptr && !table->ok()) {
    ok_ = false;
  }
  if (!SourceInRange(rank)) return;
  heap_.push_back(
      {std::visit([](const auto& it) { return it.key(); }, cursor), rank});
  std::push_heap(heap_.begin(), heap_.end(), After<HeapEntry>);
}

}  // namespace bloomrf
