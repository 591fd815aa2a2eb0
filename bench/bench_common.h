// Shared harness utilities for the per-figure benchmark binaries.
//
// Every bench runs at laptop scale by default (so `for b in
// build/bench/*; do $b; done` completes in minutes) and scales to the
// paper's full setup via flags:
//   --keys=N       dataset size (paper: 5e7 for the LSM experiments)
//   --queries=N    query count (paper: 1e5)
//   --full         paper-scale defaults
//   --filter=a,b   restrict to these FilterRegistry backends
//   list-filters   print every registered backend and exit
// or the environment variable BLOOMRF_BENCH_FULL=1.

#ifndef BLOOMRF_BENCH_BENCH_COMMON_H_
#define BLOOMRF_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "filters/registry.h"

namespace bloomrf::bench {

struct Scale {
  uint64_t keys = 1'000'000;
  uint64_t queries = 20'000;
  bool full = false;
  /// Registry names from --filter=; empty means the bench's default
  /// contender set.
  std::vector<std::string> filters;
  /// Whether this bench consumes scale.filters (set by ParseScale).
  bool filter_aware = false;
};

inline void PrintRegisteredFilters() {
  std::printf("registered filters (--filter=<name>[,<name>...]):\n");
  auto& registry = FilterRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    const FilterRegistry::Entry* entry = registry.Find(name);
    std::printf("  %-16s %-14s ranges=%s online=%s\n", name.c_str(),
                entry->display_name.c_str(),
                entry->supports_ranges ? "yes" : "no",
                entry->build_online != nullptr ? "yes" : "no");
  }
}

/// `filter_aware` marks benches that consume scale.filters; the others
/// warn instead of silently ignoring a --filter= selection.
inline Scale ParseScale(int argc, char** argv, uint64_t default_keys = 1'000'000,
                        uint64_t default_queries = 20'000,
                        bool filter_aware = false) {
  Scale scale;
  scale.keys = default_keys;
  scale.queries = default_queries;
  scale.filter_aware = filter_aware;
  const char* env = std::getenv("BLOOMRF_BENCH_FULL");
  if (env != nullptr && env[0] == '1') scale.full = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--keys=", 7) == 0) {
      scale.keys = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      scale.queries = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strcmp(argv[i], "--full") == 0) {
      scale.full = true;
    } else if (std::strcmp(argv[i], "list-filters") == 0 ||
               std::strcmp(argv[i], "--list-filters") == 0) {
      PrintRegisteredFilters();
      std::exit(0);
    } else if (std::strncmp(argv[i], "--filter=", 9) == 0) {
      if (!filter_aware) {
        std::fprintf(stderr,
                     "warning: this bench uses a fixed contender set; "
                     "--filter= is ignored\n");
        continue;
      }
      std::string list = argv[i] + 9;
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        std::string name = list.substr(start, comma - start);
        if (!name.empty()) {
          if (FilterRegistry::Instance().Find(name) == nullptr) {
            std::fprintf(stderr, "unknown filter '%s'\n", name.c_str());
            PrintRegisteredFilters();
            std::exit(1);
          }
          scale.filters.push_back(std::move(name));
        }
        start = comma + 1;
      }
    }
  }
  if (scale.full) {
    scale.keys = 50'000'000;
    scale.queries = 100'000;
  }
  return scale;
}

/// The bench's contender set: --filter= selections, or `defaults`.
inline std::vector<std::string> FiltersOrDefault(
    const Scale& scale, std::initializer_list<const char*> defaults) {
  if (!scale.filters.empty()) return scale.filters;
  return {defaults.begin(), defaults.end()};
}

inline void Header(const char* figure, const char* title, const Scale& scale) {
  std::printf("\n=== %s: %s ===\n", figure, title);
  std::printf("(keys=%llu queries=%llu; --full for paper scale%s)\n",
              static_cast<unsigned long long>(scale.keys),
              static_cast<unsigned long long>(scale.queries),
              scale.filter_aware ? ", --filter=<names> to choose backends"
                                 : "");
}

/// Formats a rate as million ops per second.
inline double Mops(uint64_t ops, double seconds) {
  return seconds > 0 ? static_cast<double>(ops) / seconds / 1e6 : 0.0;
}

/// Median and quartiles of a sample, interpolating between order
/// statistics.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
inline Quartiles QuartilesOf(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// A throughput ratio b/a measured as `pairs` interleaved (a, b) pairs,
/// alternating which side runs first, so drift during the run lands on
/// both sides of each pair alike: the median and quartiles of the
/// per-pair ratios, and each side's median Mops. `setup(p)`, when
/// given, runs untimed before pair p (e.g. to build fresh engines).
struct PairedRatio {
  Quartiles ratio;
  double a_mops = 0;
  double b_mops = 0;
};
template <typename TimeA, typename TimeB, typename Setup = void (*)(int)>
PairedRatio TimePairs(int pairs, TimeA time_a, TimeB time_b,
                      Setup setup = [](int) {}) {
  std::vector<double> a, b, ratios;
  for (int p = 0; p < pairs; ++p) {
    setup(p);
    double a_mops, b_mops;
    if (p % 2 == 0) {
      a_mops = time_a();
      b_mops = time_b();
    } else {
      b_mops = time_b();
      a_mops = time_a();
    }
    a.push_back(a_mops);
    b.push_back(b_mops);
    ratios.push_back(a_mops > 0 ? b_mops / a_mops : 0);
  }
  return {QuartilesOf(ratios), QuartilesOf(a).median, QuartilesOf(b).median};
}

}  // namespace bloomrf::bench

#endif  // BLOOMRF_BENCH_BENCH_COMMON_H_
