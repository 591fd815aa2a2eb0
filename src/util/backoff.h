// Exponential backoff schedule for retrying failed background I/O
// (compaction, flush) without hot-looping against a broken disk.

#ifndef BLOOMRF_UTIL_BACKOFF_H_
#define BLOOMRF_UTIL_BACKOFF_H_

#include <algorithm>
#include <chrono>

namespace bloomrf {

class Backoff {
 public:
  explicit Backoff(std::chrono::milliseconds initial =
                       std::chrono::milliseconds(10),
                   std::chrono::milliseconds max =
                       std::chrono::milliseconds(2000))
      : initial_(initial), max_(max), next_(initial) {}

  /// The delay to sleep before the next retry; doubles per call up to
  /// the cap.
  std::chrono::milliseconds Next() {
    auto delay = next_;
    next_ = std::min(max_, next_ * 2);
    return delay;
  }

  void Reset() { next_ = initial_; }

 private:
  const std::chrono::milliseconds initial_;
  const std::chrono::milliseconds max_;
  std::chrono::milliseconds next_;
};

}  // namespace bloomrf

#endif  // BLOOMRF_UTIL_BACKOFF_H_
