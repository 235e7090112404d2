// End-to-end integration tests over the ExperimentEnv harness: the paper's
// qualitative claims must hold on small-scale runs, and both execution
// engines must agree.

#include <gtest/gtest.h>

#include "src/core/grouting.h"

namespace grouting {
namespace {

// A single small env shared by all tests in this file (preprocessing is the
// expensive part; the paper's setup amortises it the same way).
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new ExperimentEnv(DatasetId::kWebGraphLike, /*scale=*/0.12, /*seed=*/7);
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }

  static RunOptions SmallRun(RoutingSchemeKind scheme) {
    RunOptions opts;
    opts.scheme = scheme;
    opts.num_hotspots = 40;
    opts.queries_per_hotspot = 8;
    return opts;
  }

  static ExperimentEnv* env_;
};

ExperimentEnv* IntegrationTest::env_ = nullptr;

TEST_F(IntegrationTest, EnvBuildsGraphOnce) {
  const Graph& g1 = env_->graph();
  const Graph& g2 = env_->graph();
  EXPECT_EQ(&g1, &g2);  // memoised
  EXPECT_GT(g1.num_nodes(), 1000u);
}

TEST_F(IntegrationTest, PreprocessingMemoised) {
  const auto& a = env_->landmarks(24, 2);
  const auto& b = env_->landmarks(24, 2);
  EXPECT_EQ(&a, &b);
  const auto& e1 = env_->embedding(6, 24, 2);
  const auto& e2 = env_->embedding(6, 24, 2);
  EXPECT_EQ(&e1, &e2);
  const auto& i1 = env_->landmark_index(3, 24, 2);
  const auto& i2 = env_->landmark_index(3, 24, 2);
  EXPECT_EQ(&i1, &i2);
}

// RunOptions carries both controller policies as whole groups: every member,
// the tuned defaults that have no CLI flag included, reaches the engine
// config unchanged. Each value below differs from the member's default.
TEST_F(IntegrationTest, MakeClusterConfigCarriesPolicyGroupsWhole) {
  RunOptions opts;
  opts.router_rebalance = {.threshold = 1.7,
                           .migration_cap = 3,
                           .load_decay = 0.55,
                           .noise_sigmas = 1.25};
  opts.repartition = {.migration = {.threshold = 1.4,
                                    .migration_cap = 6,
                                    .load_decay = 0.65,
                                    .noise_sigmas = 2.5},
                      .partitions_per_server = 5,
                      .replication_top_k = 7,
                      .replica_demote_threshold = 0.3,
                      .max_replicas_per_partition = 1};

  const ClusterConfig config = env_->MakeClusterConfig(opts);
  const RebalancePolicy& rb = config.router_rebalance;
  EXPECT_EQ(rb.threshold, 1.7);
  EXPECT_EQ(rb.migration_cap, 3u);
  EXPECT_EQ(rb.load_decay, 0.55);
  EXPECT_EQ(rb.noise_sigmas, 1.25);
  const RepartitionConfig& rp = config.repartition;
  EXPECT_EQ(rp.migration.threshold, 1.4);
  EXPECT_EQ(rp.migration.migration_cap, 6u);
  EXPECT_EQ(rp.migration.load_decay, 0.65);
  EXPECT_EQ(rp.migration.noise_sigmas, 2.5);
  EXPECT_EQ(rp.partitions_per_server, 5u);
  EXPECT_EQ(rp.replication_top_k, 7u);
  EXPECT_EQ(rp.replica_demote_threshold, 0.3);
  EXPECT_EQ(rp.max_replicas_per_partition, 1u);
}

TEST_F(IntegrationTest, SmartRoutingBeatsBaselinesOnHitRate) {
  RunOptions base = SmallRun(RoutingSchemeKind::kNextReady);
  base.num_landmarks = 24;
  base.min_separation = 2;
  base.dimensions = 6;
  auto next_ready = env_->Run(EngineKind::kSimulated, base);
  base.scheme = RoutingSchemeKind::kEmbed;
  auto embed = env_->Run(EngineKind::kSimulated, base);
  base.scheme = RoutingSchemeKind::kLandmark;
  auto landmark = env_->Run(EngineKind::kSimulated, base);

  // The paper's headline: smart routing gets significantly more cache hits.
  EXPECT_GT(embed.CacheHitRate(), next_ready.CacheHitRate() * 1.3);
  EXPECT_GT(landmark.CacheHitRate(), next_ready.CacheHitRate() * 1.3);
  // And lower response time.
  EXPECT_LT(embed.mean_response_ms, next_ready.mean_response_ms);
}

TEST_F(IntegrationTest, NoCacheSlowerThanCachedSchemes) {
  RunOptions opts = SmallRun(RoutingSchemeKind::kNoCache);
  opts.num_landmarks = 24;
  opts.min_separation = 2;
  auto no_cache = env_->Run(EngineKind::kSimulated, opts);
  EXPECT_EQ(no_cache.cache_hits, 0u);
  opts.scheme = RoutingSchemeKind::kHash;
  auto hash = env_->Run(EngineKind::kSimulated, opts);
  EXPECT_LT(hash.mean_response_ms, no_cache.mean_response_ms);
}

TEST_F(IntegrationTest, TinyCacheWorseThanNoCache) {
  // Paper Fig 9: below ~64MB-equivalent, maintenance costs exceed benefits.
  RunOptions opts = SmallRun(RoutingSchemeKind::kHash);
  opts.num_landmarks = 24;
  opts.min_separation = 2;
  opts.cache_bytes = 8 << 10;  // 8 KB: pure churn
  auto tiny = env_->Run(EngineKind::kSimulated, opts);
  opts.scheme = RoutingSchemeKind::kNoCache;
  opts.cache_bytes = 0;
  auto none = env_->Run(EngineKind::kSimulated, opts);
  EXPECT_GT(tiny.mean_response_ms, none.mean_response_ms);
}

TEST_F(IntegrationTest, ThroughputScalesWithProcessorsUnderEmbed) {
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed);
  opts.num_landmarks = 24;
  opts.min_separation = 2;
  opts.dimensions = 6;
  opts.processors = 1;
  auto p1 = env_->Run(EngineKind::kSimulated, opts);
  opts.processors = 4;
  auto p4 = env_->Run(EngineKind::kSimulated, opts);
  EXPECT_GT(p4.throughput_qps, p1.throughput_qps * 2.0);
}

TEST_F(IntegrationTest, CoupledBaselinesFarBelowDecoupled) {
  // Fig 7's qualitative claim at mini scale: the decoupled system beats the
  // coupled BSP baseline by a wide margin on throughput.
  const Graph& g = env_->graph();
  auto queries = env_->HotspotWorkload(2, 2, 25, 4);

  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed);
  opts.num_landmarks = 24;
  opts.min_separation = 2;
  opts.dimensions = 6;
  auto decoupled = env_->Run(EngineKind::kSimulated, opts, queries);

  CoupledConfig cc;
  cc.num_servers = 12;
  auto parts = MultilevelPartitioner().Partition(g, 12);
  SedgeLikeSystem sedge(g, cc, parts, 0);
  auto coupled = sedge.Run(queries);

  EXPECT_GT(decoupled.throughput_qps, coupled.throughput_qps * 3.0);
}

TEST_F(IntegrationTest, GraphUpdateRobustness) {
  // Fig 10 mini-check: preprocessing on an 50% subgraph, queries on the
  // full graph, must still beat baseline routing after incremental fills.
  const Graph& g = env_->graph();
  Rng rng(13);
  std::vector<uint8_t> keep(g.num_nodes(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    keep[u] = rng.NextBool(0.5);
  }
  LandmarkConfig lc;
  lc.num_landmarks = 24;
  lc.min_separation = 2;
  lc.seed = 3;
  auto lms = LandmarkSet::Select(g, lc, &keep);
  auto index = LandmarkIndex::Build(std::move(lms), 3);
  size_t added = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!keep[u]) {
      added += index.AddNodeIncremental(g, u);
    }
  }
  EXPECT_GT(added, 0u);
  // After incremental fill, most nodes should have a finite distance row.
  size_t finite = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (uint32_t p = 0; p < 3; ++p) {
      if (index.Distance(u, p) != kUnreachableU16) {
        ++finite;
        break;
      }
    }
  }
  EXPECT_GT(finite, g.num_nodes() * 9 / 10);
}

}  // namespace
}  // namespace grouting
