#include "lsm/block.h"

#include "util/coding.h"

namespace bloomrf {

void BlockBuilder::Add(uint64_t key, std::string_view value, bool tombstone) {
  PutFixed64(&buffer_, key);
  uint32_t meta = static_cast<uint32_t>(value.size());
  if (tombstone) meta |= kTombstoneBit;
  PutFixed32(&buffer_, meta);
  buffer_.append(value.data(), value.size());
  last_key_ = key;
  ++num_entries_;
}

std::string BlockBuilder::Finish() {
  std::string out = std::move(buffer_);
  buffer_.clear();
  num_entries_ = 0;
  last_key_ = 0;
  return out;
}

bool ParseBlock(std::string_view data, std::vector<uint32_t>* offsets) {
  constexpr size_t kHeader = BlockBuilder::kEntryHeaderBytes;
  constexpr uint32_t kTombstone = BlockBuilder::kTombstoneBit;
  offsets->clear();
  if (data.size() > UINT32_MAX) return false;
  // Validate and count, then record where each entry starts, so the
  // offsets are allocated once, at their final size.
  size_t count = 0;
  for (size_t pos = 0; pos < data.size(); ++count) {
    if (data.size() - pos < kHeader) return false;
    const uint32_t meta = DecodeFixed32(data.data() + pos + 8);
    const uint32_t len = meta & ~kTombstone;
    pos += kHeader;
    if (len > data.size() - pos) return false;
    // Tombstones carry no value.
    if ((meta & kTombstone) != 0 && len != 0) return false;
    pos += len;
  }
  offsets->reserve(count);
  for (size_t pos = 0; pos < data.size();) {
    offsets->push_back(static_cast<uint32_t>(pos));
    pos += kHeader + (DecodeFixed32(data.data() + pos + 8) & ~kTombstone);
  }
  return true;
}

}  // namespace bloomrf
