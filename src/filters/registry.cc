#include "filters/registry.h"

#include <algorithm>
#include <cstdio>

#include "util/coding.h"

namespace bloomrf {

namespace {
// Framing magic ("bloomRF filter block"); guards against feeding
// unframed payloads or foreign blobs into the registry.
constexpr uint32_t kFrameMagic = 0xb10ff11e;
constexpr size_t kMaxNameLen = 64;
}  // namespace

FilterRegistry& FilterRegistry::Instance() {
  // Built-ins are registered directly during construction of the
  // singleton (RegisterBuiltinFilters takes the registry by reference,
  // never re-entering Instance), so they are deterministically present
  // before any macro-based external registration can run.
  static FilterRegistry* registry = [] {
    static FilterRegistry r;
    RegisterBuiltinFilters(r);
    return &r;
  }();
  return *registry;
}

bool FilterRegistry::Register(Entry entry) {
  if (entry.name.empty() || entry.name.size() > kMaxNameLen ||
      entry.display_name.empty() || !entry.build_from_sorted_keys ||
      !entry.deserialize ||
      entry.online != static_cast<bool>(entry.build_online)) {
    std::fprintf(stderr,
                 "FilterRegistry: rejected incomplete entry '%s'\n",
                 entry.name.c_str());
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Names and display names share one lookup namespace (Find resolves
  // both), so collisions are rejected across the two maps as well.
  if (entries_.count(entry.name) > 0 ||
      by_display_.count(entry.display_name) > 0 ||
      by_display_.count(entry.name) > 0 ||
      entries_.count(entry.display_name) > 0) {
    std::fprintf(stderr,
                 "FilterRegistry: rejected colliding entry '%s' (%s)\n",
                 entry.name.c_str(), entry.display_name.c_str());
    return false;
  }
  by_display_.emplace(entry.display_name, entry.name);
  entries_.emplace(entry.name, std::move(entry));
  return true;
}

const FilterRegistry::Entry* FilterRegistry::Find(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) return &it->second;
  auto alias = by_display_.find(name);
  if (alias != by_display_.end()) {
    it = entries_.find(alias->second);
    if (it != entries_.end()) return &it->second;
  }
  return nullptr;
}

std::vector<std::string> FilterRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;  // std::map iteration is already sorted
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
