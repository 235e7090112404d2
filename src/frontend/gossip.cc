#include "src/frontend/gossip.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace grouting {

std::vector<std::unique_ptr<RoutingStrategy>> CloneStrategyPerShard(
    std::unique_ptr<RoutingStrategy> strategy, uint32_t num_shards) {
  GROUTING_CHECK(strategy != nullptr);
  GROUTING_CHECK(num_shards > 0);
  std::vector<std::unique_ptr<RoutingStrategy>> strategies;
  strategies.reserve(num_shards);
  for (uint32_t s = 1; s < num_shards; ++s) {
    auto clone = strategy->Clone();
    GROUTING_CHECK_MSG(clone != nullptr,
                       "num_router_shards > 1 requires a Clone()-able strategy");
    strategies.push_back(std::move(clone));
  }
  strategies.insert(strategies.begin(), std::move(strategy));
  return strategies;
}

double CrossShardStateDivergence(std::span<const RoutingStrategy* const> shards) {
  if (shards.size() < 2) {
    return 0.0;
  }
  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    const auto a = shards[i]->GossipState();
    if (a.empty()) {
      return 0.0;  // stateless strategy: nothing to diverge
    }
    for (size_t j = i + 1; j < shards.size(); ++j) {
      const auto b = shards[j]->GossipState();
      GROUTING_CHECK(a.size() == b.size());
      double sq = 0.0;
      for (size_t k = 0; k < a.size(); ++k) {
        const double d = a[k] - b[k];
        sq += d * d;
      }
      total += std::sqrt(sq);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

void GossipBlendStrategies(std::span<RoutingStrategy* const> shards) {
  if (shards.size() < 2) {
    return;
  }
  bool stateful = false;
  for (const RoutingStrategy* s : shards) {
    stateful |= !s->GossipState().empty();
  }
  if (!stateful) {
    return;  // stateless strategies: nothing to blend, skip the clones
  }
  std::vector<std::unique_ptr<RoutingStrategy>> snapshots;
  snapshots.reserve(shards.size());
  for (const RoutingStrategy* s : shards) {
    auto snap = s->Clone();
    GROUTING_CHECK_MSG(snap != nullptr, "gossip requires a Clone()-able strategy");
    snapshots.push_back(std::move(snap));
  }
  // Target blend for shard i: (1 - (N-1)w) * own + w * sum(sibling snapshots)
  // with uniform w = kGossipMergeWeight / N. MergeRemoteState is pairwise and
  // sequential, which left alone would weight later siblings geometrically
  // more; merging sibling k of m with corrected weight w / (1 - (m-k)w)
  // yields exactly the uniform target (and is what keeps the round
  // symmetric and order-independent, as gossip.h promises).
  const double w = kGossipMergeWeight / static_cast<double>(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    const size_t m = shards.size() - 1;
    size_t k = 1;
    for (size_t j = 0; j < shards.size(); ++j) {
      if (j != i) {
        const double corrected = w / (1.0 - static_cast<double>(m - k) * w);
        shards[i]->MergeRemoteState(*snapshots[j], corrected);
        ++k;
      }
    }
  }
}

void GossipBlendRound(std::span<RoutingStrategy* const> shards, GossipStats* stats) {
  if (shards.size() < 2) {
    return;
  }
  const std::vector<const RoutingStrategy*> views(shards.begin(), shards.end());
  stats->last_divergence_before = CrossShardStateDivergence(views);
  GossipBlendStrategies(shards);
  stats->last_divergence_after = CrossShardStateDivergence(views);
  stats->rounds += 1;
}

size_t GossipRebalanceRound(ArrivalSplitter* splitter,
                            std::span<const uint64_t> routed_per_shard,
                            const RebalancePolicy& policy,
                            std::span<RoutingStrategy* const> shards) {
  const std::vector<SessionMigration> migrations =
      splitter->Rebalance(routed_per_shard, policy);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  // tiny: linear dedupe
  for (const SessionMigration& m : migrations) {
    const auto pair = std::make_pair(m.from, m.to);
    if (std::find(pairs.begin(), pairs.end(), pair) == pairs.end()) {
      pairs.push_back(pair);
    }
  }
  for (const auto& [from, to] : pairs) {
    shards[to]->MergeRemoteState(*shards[from], kMigrationCarryWeight);
  }
  return migrations.size();
}

}  // namespace grouting
