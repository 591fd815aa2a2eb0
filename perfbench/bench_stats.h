// Arithmetic and answer checking of the LSM benchmark, kept free of
// engine types so the self-test (selftest.cc) can exercise every
// formula the report uses: quantiles with their sample counts, span
// self time, ratios, amplification, and the expected-answer models
// that turn a wrong Get/MultiGet/ScanRange answer into a failed
// operation.

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------- values

/// SplitMix64 finalizer: the benchmark's only source of pseudo-random
/// bits, so its inputs never change when the library's RNG does.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(Mix64(seed)) {}
  uint64_t Next() { return Mix64(state += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

inline constexpr size_t kValueBytes = 64;

/// The 64-byte value stored for `key` at write `version`: a misrouted
/// or stale answer cannot match it.
inline void FillValue(uint64_t key, uint32_t version, char* out) {
  uint64_t h = Mix64(key ^ (static_cast<uint64_t>(version) << 40));
  for (size_t i = 0; i < kValueBytes; i += 8) {
    h = Mix64(h + i);
    std::memcpy(out + i, &h, 8);
  }
}

// ---------------------------------------------------------- quantiles

/// One latency distribution, summarised the way the report prints it.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0;
  double p99 = 0;
  /// Samples strictly above p99; the p99 is supported (at least ten
  /// samples beyond it) only when this is >= 10.
  size_t beyond_p99 = 0;
  /// Lowest and highest chunk p99 (ChunkedSummary).
  double chunk_p99_min = 0;
  double chunk_p99_max = 0;
};

/// Nearest-rank quantile of ascending `sorted`: the smallest sample
/// with at least ceil(q * n) samples at or below it. 0 when empty.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(sorted.size())) {
    ++rank;
  }
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Sorts `samples` in place and summarises them.
inline LatencySummary Summarise(std::vector<double>* samples) {
  LatencySummary s;
  std::sort(samples->begin(), samples->end());
  s.samples = samples->size();
  s.p50 = NearestRank(*samples, 0.50);
  s.p99 = NearestRank(*samples, 0.99);
  s.beyond_p99 = static_cast<size_t>(
      samples->end() -
      std::upper_bound(samples->begin(), samples->end(), s.p99));
  return s;
}

/// Median of a small set (mean of the middle two when even).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Samples per chunk below which a chunk's p99 has fewer than ten
/// samples beyond it.
inline constexpr size_t kMinChunkSamples = 1000;

/// Latency of one verb over a phase: `samples` in call order is cut
/// into up to `max_chunks` consecutive chunks of at least
/// kMinChunkSamples calls (one chunk when there are fewer), each chunk
/// is summarised, and the median of the chunks' p50s and p99s is
/// reported. A burst of interference then moves one chunk, not the
/// result. `beyond_p99` is the smallest count of any chunk.
inline LatencySummary ChunkedSummary(const std::vector<double>& samples,
                                     size_t max_chunks) {
  LatencySummary out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const size_t chunks = std::clamp<size_t>(samples.size() / kMinChunkSamples,
                                           1, max_chunks);
  std::vector<double> p50s, p99s;
  out.beyond_p99 = samples.size();
  for (size_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk(samples.begin() + c * samples.size() / chunks,
                              samples.begin() + (c + 1) * samples.size() / chunks);
    const LatencySummary s = Summarise(&chunk);
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
    out.beyond_p99 = std::min(out.beyond_p99, s.beyond_p99);
  }
  out.p50 = Median(p50s);
  out.p99 = Median(p99s);
  out.chunk_p99_min = *std::min_element(p99s.begin(), p99s.end());
  out.chunk_p99_max = *std::max_element(p99s.begin(), p99s.end());
  return out;
}

// ------------------------------------------------------------- ratios

/// num / den, or 0 when nothing was attempted (den == 0).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Measured false-positive rate: filter "maybe" answers the data then
/// refuted, over every probe of a table that held no match.
inline double FalsePositiveRate(uint64_t false_positives, uint64_t negatives) {
  return Ratio(static_cast<double>(false_positives),
               static_cast<double>(false_positives + negatives));
}

/// Bytes of the store's files per byte of live user data.
inline double SpaceAmplification(uint64_t store_bytes, uint64_t live_bytes) {
  return Ratio(static_cast<double>(store_bytes),
               static_cast<double>(live_bytes));
}

/// Bytes compaction wrote per byte the user wrote.
inline double WriteAmplification(uint64_t compaction_bytes_written,
                                 uint64_t user_bytes) {
  return Ratio(static_cast<double>(compaction_bytes_written),
               static_cast<double>(user_bytes));
}

// ---------------------------------------------------------- self time

/// A layer's self time: its span's duration minus the time of its
/// child spans. The children are replayed after the original call
/// rather than nested inside it, and run one after another, so their
/// durations add up and are taken out of the parent's duration. The
/// result is negative when the replay was slower than the call.
inline int64_t ReplaySelfTime(int64_t duration, int64_t children_duration) {
  return duration - children_duration;
}

// ---------------------------------------------------- expected answers

/// Operations attempted and failed in one run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Record(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    if (failed == 0) first_failure = what;
    ++failed;
  }
};

/// Expected contents of the store: for every key of a fixed sorted
/// universe (every key the workload can write), the version of its live
/// value, or none. Contiguous arrays, so checking a call costs one
/// binary search rather than a walk over scattered tree nodes.
class KeyModel {
 public:
  /// `sorted` must be sorted and unique; every key starts live at
  /// version 0 when `live`, absent otherwise.
  KeyModel(std::vector<uint64_t> sorted, bool live)
      : keys_(std::move(sorted)), versions_(keys_.size(), live ? 0 : kAbsent) {}

  /// `key` must be in the universe.
  void Put(uint64_t key, uint32_t version) { versions_[Index(key)] = version; }
  void Erase(uint64_t key) { versions_[Index(key)] = kAbsent; }

  std::optional<uint32_t> Find(uint64_t key) const {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) return std::nullopt;
    const uint32_t v = versions_[static_cast<size_t>(it - keys_.begin())];
    return v == kAbsent ? std::nullopt : std::optional<uint32_t>(v);
  }
  template <class Fn>
  void ForEachInRange(uint64_t lo, uint64_t hi, size_t limit, Fn fn) const {
    size_t i = static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), lo) - keys_.begin());
    for (size_t n = 0; i < keys_.size() && keys_[i] <= hi && n < limit; ++i) {
      if (versions_[i] == kAbsent) continue;
      fn(keys_[i], versions_[i]);
      ++n;
    }
  }
  /// Live keys, ascending.
  std::vector<uint64_t> LiveKeys() const {
    std::vector<uint64_t> out;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (versions_[i] != kAbsent) out.push_back(keys_[i]);
    }
    return out;
  }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  size_t Index(uint64_t key) const {
    return static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> versions_;
};

// Answers are reduced to 64-bit digests while the timed phase runs and
// compared with the model's expected answers after it, so checking
// keeps the model out of the CPU caches the engine is timed on. Equal
// digests of unequal answers have probability 2^-64.

inline uint64_t BytesDigest(std::string_view bytes) {
  uint64_t h = Mix64(bytes.size());
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = Mix64(h ^ word);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return Mix64(h ^ tail);
}

/// Order-dependent fold of digests.
inline uint64_t Combine(uint64_t acc, uint64_t digest) {
  return Mix64(acc + digest);
}

inline constexpr uint64_t kAbsentDigest = 0x9b1c5a3f7e2d4c61ULL;

inline uint64_t PointDigest(const std::optional<std::string>& answer) {
  return answer.has_value() ? BytesDigest(*answer) : kAbsentDigest;
}

inline uint64_t RowDigest(uint64_t key, uint64_t value_digest) {
  return Mix64(key) ^ value_digest;
}

inline uint64_t RowsDigest(
    const std::vector<std::pair<uint64_t, std::string>>& rows) {
  uint64_t h = 0;
  for (const auto& [key, value] : rows) {
    h = Combine(h, RowDigest(key, BytesDigest(value)));
  }
  return Combine(h, rows.size());
}

template <class Model>
uint64_t ExpectedPointDigest(const Model& model, uint64_t key) {
  const std::optional<uint32_t> version = model.Find(key);
  if (!version.has_value()) return kAbsentDigest;
  char value[kValueBytes];
  FillValue(key, *version, value);
  return BytesDigest({value, kValueBytes});
}

/// Digest of the first `limit` rows of [lo, hi].
template <class Model>
uint64_t ExpectedRowsDigest(const Model& model, uint64_t lo, uint64_t hi,
                            size_t limit) {
  uint64_t h = 0;
  size_t rows = 0;
  model.ForEachInRange(lo, hi, limit, [&](uint64_t key, uint32_t version) {
    char value[kValueBytes];
    FillValue(key, version, value);
    h = Combine(h, RowDigest(key, BytesDigest({value, kValueBytes})));
    ++rows;
  });
  return Combine(h, rows);
}


}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
