// Self-test of the benchmark's own arithmetic and answer checking.
// Run through `python3 perfbench/run.py --selftest`; exits non-zero on
// the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fabs(b); }

using namespace perfbench;

std::string ValueFor(uint64_t key, uint32_t version) {
  std::string v(kValueBytes, '\0');
  FillValue(key, version, v.data());
  return v;
}

// The benchmark's answer check: an answer is right when its digest
// equals the digest of the model's expected answer.
bool CheckPoint(const KeyModel& model, uint64_t key,
                const std::optional<std::string>& answer) {
  return PointDigest(answer) == ExpectedPointDigest(model, key);
}

bool CheckRange(const KeyModel& model, uint64_t lo, uint64_t hi, size_t limit,
                const std::vector<std::pair<uint64_t, std::string>>& rows) {
  return RowsDigest(rows) == ExpectedRowsDigest(model, lo, hi, limit);
}

void TestQuantiles() {
  // 1..1000: nearest rank p50 = 500, p99 = 990, ten samples beyond.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  LatencySummary s = Summarise(&v);
  CHECK(s.samples == 1000);
  CHECK(s.p50 == 500);
  CHECK(s.p99 == 990);
  CHECK(s.beyond_p99 == 10);

  // Small sets: ceil(q * n)-th smallest.
  std::vector<double> three = {30, 10, 20};
  s = Summarise(&three);
  CHECK(s.samples == 3 && s.p50 == 20 && s.p99 == 30 && s.beyond_p99 == 0);

  // Ties above the p99 value are not "beyond" it.
  std::vector<double> ties(200, 5.0);
  ties[0] = 1;
  s = Summarise(&ties);
  CHECK(s.p99 == 5 && s.beyond_p99 == 0);

  std::vector<double> empty;
  s = Summarise(&empty);
  CHECK(s.samples == 0 && s.p50 == 0 && s.p99 == 0);

  CHECK(Median({3, 1, 2}) == 2);
  CHECK(Median({4, 1, 2, 3}) == 2.5);

  // Ten chunks of 1000 calls; one chunk is a burst of 100x slower
  // calls. The pooled p99 lands in the burst, the chunk median not.
  std::vector<double> calls;
  for (int c = 0; c < 10; ++c) {
    for (int i = 1; i <= 1000; ++i) calls.push_back(c == 3 ? 100.0 * i : i);
  }
  s = ChunkedSummary(calls, 10);
  CHECK(s.samples == 10000);
  CHECK(s.p50 == 500);
  CHECK(s.p99 == 990);
  CHECK(s.beyond_p99 == 10);
  std::vector<double> pooled = calls;
  CHECK(Summarise(&pooled).p99 > 1000);
  // Fewer calls than one full chunk: a single chunk, the plain quantiles.
  std::vector<double> few = {5, 1, 3};
  s = ChunkedSummary(few, 10);
  CHECK(s.samples == 3 && s.p50 == 3 && s.p99 == 5);
  // 2500 calls make two chunks (1250 fast, 1250 slow): the median of
  // their p50s, where the pooled p50 would be the fast value.
  std::vector<double> two(2500, 1.0);
  std::fill(two.begin() + 1250, two.end(), 3.0);
  CHECK(ChunkedSummary(two, 10).p50 == 2);
}

void TestRatios() {
  CHECK(Ratio(1, 0) == 0);
  CHECK(Ratio(3, 4) == 0.75);
  // FPR: 5 refuted "maybe" answers among 5 + 995 probes of tables
  // holding no match.
  CHECK(Near(FalsePositiveRate(5, 995), 0.005));
  CHECK(FalsePositiveRate(0, 0) == 0);
  CHECK(Near(SpaceAmplification(150, 100), 1.5));
  CHECK(Near(WriteAmplification(720, 72), 10));
}

void TestSelfTime() {
  // A 1000 ns Get whose replayed filter probes took 300 ns and block
  // lookup 500 ns spent 200 ns in the Db itself.
  CHECK(ReplaySelfTime(1000, 300 + 500) == 200);
  CHECK(ReplaySelfTime(100, 150) == -50);
}

void TestAnswerChecks() {
  const KeyModel frozen({10, 20, 30, 40}, /*live=*/true);
  CHECK(CheckPoint(frozen, 20, ValueFor(20, 0)));
  CHECK(CheckPoint(frozen, 25, std::nullopt));
  CHECK(!CheckPoint(frozen, 25, ValueFor(25, 0)));   // phantom row
  CHECK(!CheckPoint(frozen, 20, std::nullopt));      // lost row
  CHECK(!CheckPoint(frozen, 20, ValueFor(30, 0)));   // misrouted value

  using Rows = std::vector<std::pair<uint64_t, std::string>>;
  CHECK(CheckRange(frozen, 15, 35, 16, Rows{{20, ValueFor(20, 0)}, {30, ValueFor(30, 0)}}));
  CHECK(CheckRange(frozen, 15, 35, 1, Rows{{20, ValueFor(20, 0)}}));
  CHECK(!CheckRange(frozen, 15, 35, 16, Rows{{20, ValueFor(20, 0)}}));  // short
  CHECK(!CheckRange(frozen, 15, 25, 16, Rows{{20, ValueFor(20, 0)}, {30, ValueFor(30, 0)}}));
  CHECK(!CheckRange(frozen, 15, 35, 16, Rows{{30, ValueFor(30, 0)}, {20, ValueFor(20, 0)}}));
  CHECK(CheckRange(frozen, 41, 50, 16, Rows{}));

  // Shadow under writes: keys of the universe start absent.
  KeyModel shadow({7, 9, 11}, /*live=*/false);
  CHECK(CheckPoint(shadow, 7, std::nullopt));
  shadow.Put(7, 3);
  shadow.Put(11, 1);
  CHECK(CheckPoint(shadow, 7, ValueFor(7, 3)));
  CHECK(!CheckPoint(shadow, 7, ValueFor(7, 2)));     // stale version
  CHECK(CheckRange(shadow, 0, 100, 16, Rows{{7, ValueFor(7, 3)}, {11, ValueFor(11, 1)}}));
  shadow.Erase(7);
  CHECK(CheckPoint(shadow, 7, std::nullopt));        // deleted stays absent
  CHECK(!CheckPoint(shadow, 7, ValueFor(7, 3)));     // resurrected
  CHECK(CheckRange(shadow, 0, 100, 16, Rows{{11, ValueFor(11, 1)}}));
  CHECK(shadow.LiveKeys() == std::vector<uint64_t>{11});

  // A planted wrong answer is counted as a failed operation.
  Tally tally;
  tally.Record(CheckPoint(frozen, 20, ValueFor(20, 0)), "get");
  tally.Record(CheckPoint(frozen, 20, std::string(kValueBytes, 'x')), "get");
  tally.Record(CheckRange(frozen, 0, 100, 16, Rows{}), "scan_range");
  CHECK(tally.attempted == 3);
  CHECK(tally.failed == 2);
  CHECK(tally.first_failure == "get");
}

void TestValues() {
  CHECK(ValueFor(1, 0).size() == kValueBytes);
  CHECK(ValueFor(1, 0) == ValueFor(1, 0));
  CHECK(ValueFor(1, 0) != ValueFor(2, 0));
  CHECK(ValueFor(1, 0) != ValueFor(1, 1));
  Rng a(42), b(42);
  CHECK(a.Next() == b.Next());
  for (int i = 0; i < 1000; ++i) {
    CHECK(a.Below(7) < 7);
    const double u = a.Unit();
    CHECK(u >= 0 && u < 1);
  }
}

}  // namespace

int main() {
  TestQuantiles();
  TestRatios();
  TestSelfTime();
  TestAnswerChecks();
  TestValues();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
