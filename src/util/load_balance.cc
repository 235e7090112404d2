#include "src/util/load_balance.h"

#include <algorithm>
#include <cmath>

namespace grouting {

std::vector<LoadMove> PlanLoadMoves(std::span<double> loads,
                                    std::span<MovableLoad> items,
                                    const RebalancePolicy& policy) {
  std::vector<LoadMove> moves;
  if (!policy.enabled() || loads.size() < 2) {
    return moves;
  }
  const double stop_ratio = std::max(1.0, kRebalanceHysteresis * policy.threshold);

  bool triggered = false;
  while (moves.size() < policy.migration_cap) {
    uint32_t hottest = 0;
    uint32_t coolest = 0;
    for (uint32_t s = 1; s < loads.size(); ++s) {
      if (loads[s] > loads[hottest]) {
        hottest = s;
      }
      if (loads[s] < loads[coolest]) {
        coolest = s;
      }
    }
    const double r = (loads[hottest] + 1.0) / (loads[coolest] + 1.0);
    const double gap = loads[hottest] - loads[coolest];
    const double gap_floor =
        policy.noise_sigmas * std::sqrt(std::max(loads[hottest], 1.0));
    if (gap <= gap_floor) {
      break;  // the spread is within sampling noise: not actionable skew
    }
    if (!triggered) {
      if (r <= policy.threshold) {
        break;  // below the trigger: leave the owners alone
      }
      triggered = true;
    } else if (r <= stop_ratio) {
      break;  // drained below the hysteresis water mark
    }

    MovableLoad* victim = nullptr;
    double victim_spread = gap;
    for (MovableLoad& item : items) {
      if (item.owner != hottest || item.rate <= 0.0 || item.rate >= gap) {
        continue;
      }
      const double spread = std::abs(gap - 2.0 * item.rate);
      if (victim == nullptr || spread < victim_spread ||
          (spread == victim_spread && item.id < victim->id)) {
        victim = &item;
        victim_spread = spread;
      }
    }
    if (victim == nullptr) {
      break;  // nothing movable without widening the spread
    }

    victim->owner = coolest;
    loads[hottest] -= victim->rate;
    loads[coolest] += victim->rate;
    moves.push_back({victim->id, hottest, coolest});
  }
  return moves;
}

}  // namespace grouting
