// Model-checking style property tests for adaptive arrival re-splitting
// (src/frontend/splitter.h + RouterFleet + both engines):
//
//   * the splitter against a trivially-correct reference model of the
//     sticky-assignment spec (least-session shard, FIFO eviction at the
//     bound) under random arrival / rebalance interleavings,
//   * no session is ever double-assigned across a migration storm: between
//     rebalances every arrival of a session lands on exactly one shard,
//   * the fleet dispatches every enqueued query exactly once while
//     migrations are forced between every batch of arrivals,
//   * both engines answer every query exactly once under an aggressive
//     rebalance configuration on a skewed stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/core/grouting.h"

namespace grouting {
namespace {

// ------------------------------------------------ splitter vs reference --

// Reference model of the sticky/adaptive assignment spec: new sessions go
// to the shard with the fewest sessions (lowest index on ties), the oldest
// session is evicted FIFO at capacity, migrations are applied verbatim.
class ReferenceAssignment {
 public:
  ReferenceAssignment(uint32_t num_shards, uint32_t capacity)
      : counts_(num_shards, 0), capacity_(capacity) {}

  uint32_t ShardFor(NodeId node) {
    auto it = table_.find(node);
    if (it != table_.end()) {
      return it->second;
    }
    if (table_.size() >= capacity_) {
      const NodeId victim = fifo_.front();
      fifo_.pop_front();
      counts_[table_.at(victim)] -= 1;
      table_.erase(victim);
      evictions_ += 1;
    }
    uint32_t least = 0;
    for (uint32_t s = 1; s < counts_.size(); ++s) {
      if (counts_[s] < counts_[least]) {
        least = s;
      }
    }
    table_[node] = least;
    counts_[least] += 1;
    fifo_.push_back(node);
    return least;
  }

  void ApplyMigration(const SessionMigration& m) {
    auto it = table_.find(m.session);
    ASSERT_NE(it, table_.end()) << "migrated a dead session " << m.session;
    ASSERT_EQ(it->second, m.from);
    it->second = m.to;
    counts_[m.from] -= 1;
    counts_[m.to] += 1;
  }

  const std::unordered_map<NodeId, uint32_t>& table() const { return table_; }
  uint64_t evictions() const { return evictions_; }

 private:
  std::unordered_map<NodeId, uint32_t> table_;
  std::deque<NodeId> fifo_;
  std::vector<uint64_t> counts_;
  uint32_t capacity_;
  uint64_t evictions_ = 0;
};

class AdaptiveSplitterModelCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdaptiveSplitterModelCheck, AgreesWithReferenceUnderMigrationStorm) {
  Rng rng(GetParam());
  const uint32_t shards = 2 + static_cast<uint32_t>(rng.NextBounded(4));
  const uint32_t capacity = 24;
  ArrivalSplitter splitter(SplitterKind::kAdaptive, shards, capacity);
  ReferenceAssignment reference(shards, capacity);

  RebalancePolicy cfg;
  cfg.threshold = 1.05;  // aggressive: storm on nearly any spread
  cfg.migration_cap = 4;
  cfg.noise_sigmas = 0.0;
  cfg.load_decay = 0.5;

  std::vector<uint64_t> routed(shards, 0);
  Query q;
  for (int step = 0; step < 4000; ++step) {
    if (rng.NextBounded(40) == 0) {
      // Rebalance against the cumulative routed counts, as the engines do.
      const auto migrations = splitter.Rebalance(routed, cfg);
      ASSERT_LE(migrations.size(), cfg.migration_cap);
      for (const SessionMigration& m : migrations) {
        ASSERT_NE(m.from, m.to);
        ASSERT_LT(m.from, shards);
        ASSERT_LT(m.to, shards);
        reference.ApplyMigration(m);
      }
    } else {
      // Zipf-ish arrival from a small node pool (collisions = sessions).
      const auto node = static_cast<NodeId>(rng.NextBounded(1 + rng.NextBounded(48)));
      q.node = node;
      const uint32_t got = splitter.ShardFor(q);
      const uint32_t expected = reference.ShardFor(node);
      ASSERT_EQ(got, expected) << "step " << step << " node " << node;
      routed[got] += 1;
    }
    // Exactly-one-shard invariant: the splitter and the model agree on
    // every live session, and a session is never on two shards (the map is
    // the single source of truth the engines route by).
    for (const auto& [node, shard] : reference.table()) {
      ASSERT_EQ(splitter.SessionShard(node), shard) << "step " << step;
    }
    ASSERT_EQ(splitter.session_count(), reference.table().size());
    ASSERT_EQ(splitter.stats().evictions, reference.evictions());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveSplitterModelCheck,
                         ::testing::Values(2, 17, 29, 101, 977));

// ----------------------------------------------- fleet: exactly-once ----

class FleetMigrationStorm : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FleetMigrationStorm, EveryQueryDispatchedExactlyOnce) {
  // Conservation through the fleet while sessions migrate between every
  // batch of arrivals: queries already queued on the old shard must still
  // dispatch, exactly once, wherever the session now lives.
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 3);
  const uint32_t shards = 2 + static_cast<uint32_t>(rng.NextBounded(3));
  const uint32_t procs = 2 + static_cast<uint32_t>(rng.NextBounded(3));

  FleetConfig fc;
  fc.num_shards = shards;
  fc.splitter = SplitterKind::kAdaptive;
  fc.rebalance.threshold = 1.05;
  fc.rebalance.migration_cap = 16;
  fc.rebalance.noise_sigmas = 0.0;
  RouterFleet fleet(std::make_unique<NextReadyStrategy>(), procs, fc);

  const size_t n = 600;
  std::map<uint64_t, int> dispatched;
  Query q;
  for (uint64_t i = 0; i < n; ++i) {
    q.id = i;
    q.node = static_cast<NodeId>(rng.NextBounded(24));  // few hot sessions
    fleet.Enqueue(q);
    if (i % 25 == 24) {
      fleet.GossipRound();  // migration storm point
    }
    // Random partial drains interleaved with the storm.
    if (rng.NextBounded(3) == 0) {
      const auto p = static_cast<uint32_t>(rng.NextBounded(procs));
      if (auto next = fleet.NextForProcessor(p); next.has_value()) {
        dispatched[next->id] += 1;
      }
    }
  }
  size_t safety = 0;
  while (fleet.HasPending() && safety++ < n * 10) {
    const auto p = static_cast<uint32_t>(rng.NextBounded(procs));
    if (auto next = fleet.NextForProcessor(p); next.has_value()) {
      dispatched[next->id] += 1;
    }
  }
  ASSERT_EQ(dispatched.size(), n);
  for (const auto& [id, count] : dispatched) {
    ASSERT_EQ(count, 1) << "query " << id;
  }
  // The storm configuration really migrated sessions.
  EXPECT_GT(fleet.splitter().stats().migrations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetMigrationStorm, ::testing::Values(1, 5, 23, 71));

// ---------------------------------------------- engines: exactly-once ----

class AdaptiveEngineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new ExperimentEnv(DatasetId::kWebGraphLike, /*scale=*/0.12, /*seed=*/53);
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }
  static ExperimentEnv* env_;
};

ExperimentEnv* AdaptiveEngineFixture::env_ = nullptr;

TEST_F(AdaptiveEngineFixture, BothEnginesAnswerExactlyOnceUnderAggressiveRebalance) {
  const auto queries = env_->SkewedWorkload(/*sessions=*/32, /*queries=*/400,
                                            /*zipf_s=*/1.2);
  for (const EngineKind kind : {EngineKind::kSimulated, EngineKind::kThreaded}) {
    SCOPED_TRACE(EngineKindName(kind));
    RunOptions opts;
    opts.scheme = RoutingSchemeKind::kEmbed;
    opts.processors = 3;
    opts.storage_servers = 2;
    opts.num_landmarks = 24;
    opts.min_separation = 2;
    opts.dimensions = 6;
    opts.router_shards = 4;
    opts.splitter = SplitterKind::kAdaptive;
    opts.router_rebalance.threshold = 1.05;
    opts.router_rebalance.migration_cap = 64;
    opts.gossip_period_us = 25.0;
    opts.arrival_gap_us = 2.0;

    auto engine = MakeClusterEngine(kind, env_->graph(), env_->MakeClusterConfig(opts),
                                    env_->MakeStrategy(opts));
    const ClusterMetrics m = engine->Run(queries);

    EXPECT_EQ(m.queries, queries.size());
    std::set<uint64_t> ids;
    for (const AnsweredQuery& a : engine->answers()) {
      EXPECT_TRUE(ids.insert(a.query_id).second) << "duplicate " << a.query_id;
    }
    EXPECT_EQ(ids.size(), queries.size());
    ASSERT_EQ(m.queries_per_router_shard.size(), 4u);
    uint64_t routed_total = 0;
    for (const uint64_t per_shard : m.queries_per_router_shard) {
      routed_total += per_shard;
    }
    EXPECT_EQ(routed_total, queries.size());
    EXPECT_GE(m.router_load_imbalance, 1.0);
    if (kind == EngineKind::kSimulated) {
      // Deterministic on the simulator: the aggressive config must migrate.
      EXPECT_GT(m.sessions_migrated, 0u);
    }
  }
}

}  // namespace
}  // namespace grouting
