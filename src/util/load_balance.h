// Load balancing shared by the router frontend and the storage tier: the
// max/min imbalance metric, and the one controller that moves load from the
// most- to the least-loaded owner. The arrival splitter runs it over router
// shards and their sessions (ArrivalSplitter::Rebalance); the storage tier
// runs it over servers and their partitions (PlanRepartition).

#ifndef GROUTING_SRC_UTIL_LOAD_BALANCE_H_
#define GROUTING_SRC_UTIL_LOAD_BALANCE_H_

#include <cstdint>
#include <span>
#include <vector>

namespace grouting {

// Max/min ratio over per-entity load counts, the shared "imbalance" metric
// definition (ClusterMetrics::router_load_imbalance over router shards,
// ::storage_load_imbalance over storage servers): 1.0 = perfectly balanced,
// the min clamped to 1 so an idle entity reads as the max count rather than
// infinity. Fewer than two entities is vacuously balanced (0.0 for none).
inline double MaxMinLoadRatio(std::span<const uint64_t> loads) {
  if (loads.size() < 2) {
    return loads.empty() ? 0.0 : 1.0;
  }
  uint64_t lo = loads[0];
  uint64_t hi = loads[0];
  for (const uint64_t v : loads) {
    lo = lo < v ? lo : v;
    hi = hi > v ? hi : v;
  }
  return static_cast<double>(hi) / static_cast<double>(lo > 0 ? lo : 1);
}

// Once triggered, PlanLoadMoves moves load down to this fraction of the
// trigger threshold (a lower water mark in (0, 1]) so the next round does
// not immediately re-trigger.
inline constexpr double kRebalanceHysteresis = 0.9;
static_assert(kRebalanceHysteresis > 0.0 && kRebalanceHysteresis <= 1.0);

// Controller policy of PlanLoadMoves.
struct RebalancePolicy {
  // Trigger: move load when (max+1)/(min+1) over the owners' decayed loads
  // exceeds this ratio. <= 1 (or infinity) disables the controller.
  double threshold = 0.0;
  // At most this many items move per round.
  uint32_t migration_cap = 8;
  // Per-round decay of the load signal, in [0, 1). Callers roll each
  // round's counts into an EWMA with it, so the controller reacts to the
  // RECENT rate, not to cumulative counts (which would make it ever less
  // sensitive as the run grows).
  double load_decay = 0.8;
  // Noise floor: move load only while the hot-cold gap exceeds this many
  // Poisson sigmas (sqrt of the hottest owner's recent load). Short windows
  // carry mostly sampling noise; without the floor the controller thrashes
  // items chasing it.
  double noise_sigmas = 3.0;

  bool enabled() const {
    return threshold > 1.0 && threshold < 1e30 && migration_cap > 0;
  }
};

// One item the controller may move: its id, current owner and decayed rate.
struct MovableLoad {
  uint32_t id = 0;
  uint32_t owner = 0;
  double rate = 0.0;
};

// One planned move.
struct LoadMove {
  uint32_t id = 0;
  uint32_t from = 0;
  uint32_t to = 0;
};

// One controller round over per-owner decayed `loads` and the `items` that
// may move between owners. Repeatedly picks the hottest and coolest owners
// and, once their ratio exceeds policy.threshold (and their gap the noise
// floor), moves the item that lands the pair closest to even: rate in
// (0, gap), smallest |gap - 2 rate|, lowest id on ties whatever the item
// order. Items at or above the gap never move, so every move strictly
// narrows the spread instead of relocating a hotspot. Stops at the
// kRebalanceHysteresis water mark, at migration_cap moves, or when nothing
// can move. Each move is applied in place: the item's owner changes and its
// rate shifts between the two entries of `loads`. Returns the moves in order
// (none unless policy.enabled()).
std::vector<LoadMove> PlanLoadMoves(std::span<double> loads,
                                    std::span<MovableLoad> items,
                                    const RebalancePolicy& policy);

}  // namespace grouting

#endif  // GROUTING_SRC_UTIL_LOAD_BALANCE_H_
