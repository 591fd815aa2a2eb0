#include "lsm/manifest.h"

#include <algorithm>

#include "lsm/wal.h"
#include "util/coding.h"

namespace bloomrf {

namespace {

// Edit payload tags. Fixed-width fields throughout: manifests are tiny
// next to the SSTs they describe, and fixed offsets decode with plain
// bounds checks.
constexpr char kTagLogNumber = 1;      // + fixed64
constexpr char kTagNextFile = 2;       // + fixed64
constexpr char kTagAddFile = 3;        // + fixed32 level, 5 x fixed64
constexpr char kTagDeleteFile = 4;     // + fixed32 level, fixed64 file

// A level index beyond this is a decode error, not a real tree.
constexpr uint32_t kMaxDecodableLevel = 64;

bool ReadFixed32(std::string_view data, size_t* at, uint32_t* out) {
  if (*at + 4 > data.size()) return false;
  *out = DecodeFixed32(data.data() + *at);
  *at += 4;
  return true;
}

bool ReadFixed64(std::string_view data, size_t* at, uint64_t* out) {
  if (*at + 8 > data.size()) return false;
  *out = DecodeFixed64(data.data() + *at);
  *at += 8;
  return true;
}

}  // namespace

std::string VersionEdit::Encode() const {
  std::string out;
  if (has_log_number) {
    out.push_back(kTagLogNumber);
    PutFixed64(&out, log_number);
  }
  if (has_next_file_number) {
    out.push_back(kTagNextFile);
    PutFixed64(&out, next_file_number);
  }
  for (const auto& [level, file] : deleted) {
    out.push_back(kTagDeleteFile);
    PutFixed32(&out, level);
    PutFixed64(&out, file);
  }
  for (const auto& [level, meta] : added) {
    out.push_back(kTagAddFile);
    PutFixed32(&out, level);
    PutFixed64(&out, meta.file_number);
    PutFixed64(&out, meta.smallest);
    PutFixed64(&out, meta.largest);
    PutFixed64(&out, meta.entries);
    PutFixed64(&out, meta.file_bytes);
  }
  return out;
}

bool VersionEdit::Decode(std::string_view payload, VersionEdit* edit) {
  *edit = VersionEdit{};
  size_t at = 0;
  while (at < payload.size()) {
    char tag = payload[at++];
    switch (tag) {
      case kTagLogNumber: {
        uint64_t n;
        if (!ReadFixed64(payload, &at, &n)) return false;
        edit->SetLogNumber(n);
        break;
      }
      case kTagNextFile: {
        uint64_t n;
        if (!ReadFixed64(payload, &at, &n)) return false;
        edit->SetNextFileNumber(n);
        break;
      }
      case kTagAddFile: {
        uint32_t level;
        FileMeta meta;
        if (!ReadFixed32(payload, &at, &level) ||
            !ReadFixed64(payload, &at, &meta.file_number) ||
            !ReadFixed64(payload, &at, &meta.smallest) ||
            !ReadFixed64(payload, &at, &meta.largest) ||
            !ReadFixed64(payload, &at, &meta.entries) ||
            !ReadFixed64(payload, &at, &meta.file_bytes)) {
          return false;
        }
        if (level > kMaxDecodableLevel || meta.smallest > meta.largest) {
          return false;
        }
        edit->added.emplace_back(level, meta);
        break;
      }
      case kTagDeleteFile: {
        uint32_t level;
        uint64_t file;
        if (!ReadFixed32(payload, &at, &level) ||
            !ReadFixed64(payload, &at, &file)) {
          return false;
        }
        if (level > kMaxDecodableLevel) return false;
        edit->deleted.emplace_back(level, file);
        break;
      }
      default:
        return false;  // unknown tag: corruption
    }
  }
  return true;
}

bool ManifestState::Apply(const VersionEdit& edit) {
  if (edit.has_log_number) log_number = std::max(log_number, edit.log_number);
  if (edit.has_next_file_number) {
    next_file_number = std::max(next_file_number, edit.next_file_number);
  }
  for (const auto& [level, file] : edit.deleted) {
    if (level >= levels.size()) return false;
    auto& files = levels[level];
    auto it = std::find_if(
        files.begin(), files.end(),
        [file = file](const FileMeta& m) { return m.file_number == file; });
    if (it == files.end()) return false;  // deleting an absent file
    files.erase(it);
  }
  for (const auto& [level, meta] : edit.added) {
    if (level >= levels.size()) levels.resize(level + 1);
    levels[level].push_back(meta);
  }
  ++edits;
  return true;
}

std::string ManifestFileName(const std::string& dir, uint64_t number) {
  return dir + "/MANIFEST-" + std::to_string(number);
}

std::string CurrentFileName(const std::string& dir) {
  return dir + "/CURRENT";
}

void ManifestReplay(const std::string& path, ManifestState* state) {
  *state = ManifestState{};
  FramedReplayResult framed = ReplayFramedFile(
      path, [state](char type, std::string_view payload) {
        if (type != kManifestEditRecord) return false;
        VersionEdit edit;
        if (!VersionEdit::Decode(payload, &edit)) return false;
        return state->Apply(edit);
      });
  state->clean = framed.clean;
}

uint64_t ReadCurrentManifestNumber(const std::string& dir) {
  return ReadNumberRecord(CurrentFileName(dir), "MANIFEST-");
}

bool SetCurrentFile(Env* env, const std::string& dir, uint64_t number) {
  return WriteFileAtomically(env, dir, CurrentFileName(dir),
                             "MANIFEST-" + std::to_string(number) + "\n");
}

ManifestWriter::ManifestWriter(Env* env, const std::string& dir,
                               uint64_t number)
    : number_(number), path_(ManifestFileName(dir, number)),
      file_(env->NewWritableFile(path_)) {}

bool ManifestWriter::Append(const VersionEdit& edit) {
  if (!ok()) return false;
  std::string record;
  AppendFramedRecord(kManifestEditRecord, edit.Encode(), &record);
  if (!file_->Append(record) || !file_->Sync()) {
    // Sticky: a partially appended record leaves a torn tail this
    // writer cannot safely append after. The Db rewrites a fresh
    // manifest (snapshot + CURRENT swap) to recover.
    broken_ = true;
    return false;
  }
  bytes_written_ += record.size();
  return true;
}

}  // namespace bloomrf
