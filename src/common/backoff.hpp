// Capped exponential backoff for every retry loop (run supervisor,
// chaos executor, sweep): delays d_0 = initial, d_{k+1} = min(2·d_k, cap).
// The cap applies after doubling, so an initial delay above it is served
// once.  A delay of 0 (also what a negative setting becomes) means "do not
// wait".  Jitter is seed-derived, so a replayed run waits the same spans.
#pragma once

#include <algorithm>
#include <cstdint>

namespace lgg::common {

class Backoff {
 public:
  Backoff(std::int64_t initial, std::int64_t cap)
      : delay_(std::max<std::int64_t>(initial, 0)),
        cap_(std::max<std::int64_t>(cap, 0)) {}

  /// Returns the current delay and advances to min(2·delay, cap),
  /// computed without overflowing the double.
  std::int64_t next() {
    const std::int64_t delay = delay_;
    delay_ = delay > cap_ / 2 ? cap_ : delay * 2;
    return delay;
  }

  /// next(), spread uniformly over ±25% by the seed-derived word `draw`
  /// (delays below 4 are not spread).
  std::int64_t next_jittered(std::uint64_t draw) {
    const std::int64_t delay = next();
    const std::int64_t quarter = delay / 4;
    if (quarter == 0) return delay;
    return delay - quarter +
           static_cast<std::int64_t>(
               draw % static_cast<std::uint64_t>(2 * quarter + 1));
  }

 private:
  std::int64_t delay_;
  std::int64_t cap_;
};

}  // namespace lgg::common
