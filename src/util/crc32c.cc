#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define BLOOMRF_CRC32C_SSE42 1
#endif

namespace bloomrf {
namespace {

// 8 tables of 256 entries: table[0] is the plain byte-at-a-time CRC-32C
// table, table[k] advances a CRC by one byte followed by k zero bytes,
// which lets the hot loop fold 8 input bytes per iteration.
struct Tables {
  uint32_t t[8][256];
  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

#ifdef BLOOMRF_CRC32C_SSE42
// One stream of the SSE4.2 `crc32` instruction, which computes CRC-32C
// itself: 8 bytes per step, then the tail byte by byte. The words are
// loaded through memcpy, so any buffer alignment is fine.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                        size_t n,
                                                        uint32_t crc) {
  uint64_t c = static_cast<uint32_t>(~crc);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

// Set once, before main; a call from an earlier static initializer
// reads false and takes the table code, which gives the same value.
const bool kHaveSse42 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}();
#endif

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc) {
  const auto& tb = tables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (n >= 8) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tb.t[7][crc & 0xff] ^ tb.t[6][(crc >> 8) & 0xff] ^
          tb.t[5][(crc >> 16) & 0xff] ^ tb.t[4][crc >> 24] ^ tb.t[3][p[4]] ^
          tb.t[2][p[5]] ^ tb.t[1][p[6]] ^ tb.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
#ifdef BLOOMRF_CRC32C_SSE42
  if (kHaveSse42) {
    return Crc32cSse42(static_cast<const uint8_t*>(data), n, crc);
  }
#endif
  return Crc32cPortable(data, n, crc);
}

}  // namespace bloomrf
