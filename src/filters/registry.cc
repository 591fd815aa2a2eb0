#include "filters/registry.h"

#include <algorithm>

#include "util/coding.h"

namespace bloomrf {

namespace {
// Framing magic ("bloomRF filter block"); guards against feeding
// unframed payloads or foreign blobs into the registry.
constexpr uint32_t kFrameMagic = 0xb10ff11e;
constexpr size_t kMaxNameLen = 64;
}  // namespace

const FilterRegistry::Entry* FilterRegistry::Find(
    std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name || entry.display_name == name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> FilterRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string FilterRegistry::BuildFramed(
    std::string_view name, const std::vector<uint64_t>& sorted_keys,
    const FilterBuildParams& params) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) return "";
  std::unique_ptr<PointRangeFilter> filter =
      entry->build_from_sorted_keys(sorted_keys, params);
  if (filter == nullptr) return "";
  return Frame(entry->name, filter->Serialize());
}

std::string FilterRegistry::Frame(std::string_view name,
                                  std::string_view payload) {
  std::string out;
  out.reserve(8 + name.size() + payload.size());
  PutFixed32(&out, kFrameMagic);
  PutLengthPrefixed(&out, name);
  out.append(payload.data(), payload.size());
  return out;
}

bool FilterRegistry::ParseFrame(std::string_view framed,
                                std::string_view* name,
                                std::string_view* payload) {
  if (framed.size() < 8) return false;
  if (DecodeFixed32(framed.data()) != kFrameMagic) return false;
  size_t pos = 4;
  if (!GetLengthPrefixed(framed, &pos, name)) return false;
  if (name->empty() || name->size() > kMaxNameLen) return false;
  *payload = framed.substr(pos);
  return true;
}

std::unique_ptr<PointRangeFilter> FilterRegistry::Deserialize(
    std::string_view framed) const {
  std::string_view name, payload;
  if (!ParseFrame(framed, &name, &payload)) return nullptr;
  const Entry* entry = Find(name);
  if (entry == nullptr) return nullptr;
  return entry->deserialize(payload);
}

}  // namespace bloomrf
