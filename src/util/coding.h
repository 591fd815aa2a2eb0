// Little-endian fixed-width and varint coding helpers for the LSM SST
// format and filter serialization (RocksDB-style).

#ifndef BLOOMRF_UTIL_CODING_H_
#define BLOOMRF_UTIL_CODING_H_

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>

namespace bloomrf {

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

/// Reads a length-prefixed slice at offset `*pos` of `src`; advances
/// `*pos`. Returns false on truncation.
inline bool GetLengthPrefixed(std::string_view src, size_t* pos,
                              std::string_view* out) {
  if (*pos + 4 > src.size()) return false;
  uint32_t len = DecodeFixed32(src.data() + *pos);
  *pos += 4;
  if (*pos + len > src.size()) return false;
  *out = src.substr(*pos, len);
  *pos += len;
  return true;
}

/// Parses `digits`, one or more decimal digits and nothing else, into
/// *value. False (and *value untouched) on any other character, an
/// empty string, a leading zero other than "0" itself, or a number past
/// UINT64_MAX. The engine writes every number with std::to_string, so
/// "0001" names no file of its own.
inline bool ParseDecimal(std::string_view digits, uint64_t* value) {
  if (digits.size() > 1 && digits.front() == '0') return false;
  uint64_t parsed = 0;
  const char* end = digits.data() + digits.size();
  auto [stop, ec] = std::from_chars(digits.data(), end, parsed);
  if (ec != std::errc() || stop != end) return false;
  *value = parsed;
  return true;
}

/// Encodes a uint64 key as 8 big-endian bytes so that byte-wise
/// lexicographic order equals numeric order (used as the LSM key format
/// and as SuRF input).
inline std::string EncodeKeyBigEndian(uint64_t key) {
  std::string s(8, '\0');
  for (int i = 7; i >= 0; --i) {
    s[i] = static_cast<char>(key & 0xff);
    key >>= 8;
  }
  return s;
}

inline uint64_t DecodeKeyBigEndian(std::string_view s) {
  uint64_t key = 0;
  for (size_t i = 0; i < 8 && i < s.size(); ++i) {
    key = (key << 8) | static_cast<uint8_t>(s[i]);
  }
  if (s.size() < 8) key <<= 8 * (8 - s.size());
  return key;
}

}  // namespace bloomrf

#endif  // BLOOMRF_UTIL_CODING_H_
