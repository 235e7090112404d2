// Load/EMA gossip between router shards (src/frontend/).
//
// Shards are shared-nothing: each routes its own arrival slice with its own
// strategy instance and only its own queues in view. Left alone their
// adaptive state drifts apart — two shards build different EMA pictures of
// the same processor caches and fight each other's placement. A gossip
// round reconciles them:
//
//   1. every shard snapshots its per-processor queue lengths and strategy
//      state (via RoutingStrategy::Clone), so the round is symmetric and
//      order-independent,
//   2. every shard receives the sum of its siblings' queue snapshots as a
//      remote-load view (Router::SetRemoteLoad),
//   3. every shard blends each sibling's state snapshot in with weight
//      kGossipMergeWeight / num_shards (RoutingStrategy::MergeRemoteState)
//      — the 1/num_shards scaling keeps the blend a contraction for any
//      weight in (0, 1], so divergence shrinks instead of oscillating.
//
// The engines drive the period (ClusterConfig::gossip_period_us, one tick
// rule in ClusterEngine::control_tick_enabled): the simulated engine's
// RouterFleet::GossipRound runs at virtual-time events, the threaded
// runtime's gossip thread at a wall-clock tick with every shard mutex held.
// Both run the router half of a tick from the helpers below, in one order:
// GossipBlendRound, then GossipRebalanceRound.

#ifndef GROUTING_SRC_FRONTEND_GOSSIP_H_
#define GROUTING_SRC_FRONTEND_GOSSIP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/frontend/splitter.h"
#include "src/routing/strategy.h"

namespace grouting {

// Blend weight for sibling strategy state at a gossip round, in (0, 1].
inline constexpr double kGossipMergeWeight = 0.5;

// Weight with which a migrated session's destination shard merges the
// source shard's strategy state, so an EmbedStrategy receiving the session
// does not restart cold.
inline constexpr double kMigrationCarryWeight = 0.5;

struct GossipStats {
  uint64_t rounds = 0;
  // Cross-shard state divergence around the most recent round.
  double last_divergence_before = 0.0;
  double last_divergence_after = 0.0;
};

// One strategy per router shard: shard 0 keeps `strategy`, shards
// 1..num_shards-1 get strategy->Clone() (checked: sharding a non-cloneable
// strategy is a config error).
std::vector<std::unique_ptr<RoutingStrategy>> CloneStrategyPerShard(
    std::unique_ptr<RoutingStrategy> strategy, uint32_t num_shards);

// Mean pairwise L2 distance between the shards' GossipState vectors.
// 0.0 for stateless strategies or fewer than two shards.
double CrossShardStateDivergence(std::span<const RoutingStrategy* const> shards);

// One state-blend round over the shard strategies: snapshot all shards via
// Clone(), then merge every sibling snapshot into every shard with an
// effective uniform weight of kGossipMergeWeight / shards.size() each.
// No-op when every shard's GossipState is empty (stateless strategies).
void GossipBlendStrategies(std::span<RoutingStrategy* const> shards);

// The blend step of a gossip round: records the divergence before and
// after GossipBlendStrategies and counts the round. No-op (no round
// counted) with fewer than two shards.
void GossipBlendRound(std::span<RoutingStrategy* const> shards, GossipStats* stats);

// The rebalance step of a gossip round: splitter->Rebalance over the
// shards' cumulative routed counts (which returns nothing unless the
// splitter is adaptive, sharded and `policy` enabled), then the
// strategy-state carry for the moved sessions: the destination shard merges
// the source shard's state with weight kMigrationCarryWeight ONCE per
// unique (from, to) pair — merging per migrated session would compound the
// blend, and a storm of same-pair migrations would wipe the destination's
// own adaptive state. Returns the number of sessions migrated.
size_t GossipRebalanceRound(ArrivalSplitter* splitter,
                            std::span<const uint64_t> routed_per_shard,
                            const RebalancePolicy& policy,
                            std::span<RoutingStrategy* const> shards);

}  // namespace grouting

#endif  // GROUTING_SRC_FRONTEND_GOSSIP_H_
