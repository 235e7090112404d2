// Wall-clock pacing for the threaded runtime: arrivals, timed mutations and
// modelled wire round trips all wait for their target time through this one
// helper.

#ifndef GROUTING_SRC_UTIL_PACE_H_
#define GROUTING_SRC_UTIL_PACE_H_

#include <chrono>
#include <thread>

namespace grouting {

// Paces the calling thread to `target`: sleeps coarse until 100 µs before it
// when it is more than 200 µs away, then spins the last stretch (sleep_until
// alone oversleeps by tens of µs). The spin stops early once `keep_pacing()`
// turns false; the coarse sleep always runs to its end.
template <typename KeepPacing>
void PaceUntil(std::chrono::steady_clock::time_point target, KeepPacing keep_pacing) {
  if (target - std::chrono::steady_clock::now() > std::chrono::microseconds(200)) {
    std::this_thread::sleep_until(target - std::chrono::microseconds(100));
  }
  while (std::chrono::steady_clock::now() < target && keep_pacing()) {
    // spin the last stretch
  }
}

inline void PaceUntil(std::chrono::steady_clock::time_point target) {
  PaceUntil(target, [] { return true; });
}

}  // namespace grouting

#endif  // GROUTING_SRC_UTIL_PACE_H_
