// Tests for the network/cost model and the DES cost accounting it drives.

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/net/cost_model.h"
#include "src/sim/decoupled_sim.h"
#include "src/workload/workload.h"

namespace grouting {
namespace {

TEST(NetworkProfileTest, InfinibandFasterThanEthernet) {
  const auto ib = NetworkProfile::Infiniband();
  const auto eth = NetworkProfile::Ethernet();
  EXPECT_LT(ib.one_way_us, eth.one_way_us);
  EXPECT_LT(ib.per_kb_us, eth.per_kb_us);
  EXPECT_LT(ib.RoundTripUs(1024), eth.RoundTripUs(1024));
}

TEST(NetworkProfileTest, RoundTripScalesWithPayload) {
  const auto ib = NetworkProfile::Infiniband();
  EXPECT_GT(ib.RoundTripUs(1 << 20), ib.RoundTripUs(1 << 10));
  // Zero payload still costs two propagation legs.
  EXPECT_DOUBLE_EQ(ib.RoundTripUs(0), 2.0 * ib.one_way_us);
}

TEST(CostModelTest, DefaultsNamedCorrectly) {
  EXPECT_EQ(CostModel::InfinibandDefaults().net.name, "infiniband");
  EXPECT_EQ(CostModel::EthernetDefaults().net.name, "ethernet");
}

class CostKnobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GenerateCommunityGraph(8, 40, 5, 1, 3);
    WorkloadConfig wc;
    wc.num_hotspots = 15;
    wc.queries_per_hotspot = 4;
    wc.seed = 5;
    queries_ = GenerateHotspotWorkload(graph_, wc);
  }

  ClusterMetrics RunWith(const CostModel& cost, bool use_cache = true) {
    ClusterConfig sc;
    sc.num_processors = 3;
    sc.num_storage_servers = 2;
    sc.processor.cache_bytes = graph_.TotalAdjacencyBytes() + (1 << 20);
    sc.processor.use_cache = use_cache;
    sc.cost = cost;
    DecoupledClusterSim sim(graph_, sc, std::make_unique<HashStrategy>());
    return sim.Run(queries_);
  }

  Graph graph_;
  std::vector<Query> queries_;
};

TEST_F(CostKnobTest, HigherPerValueCostSlowsMissesOnly) {
  CostModel cheap;
  cheap.storage_per_value_us = 0.1;
  CostModel expensive = cheap;
  expensive.storage_per_value_us = 10.0;
  const auto fast = RunWith(cheap, /*use_cache=*/false);
  const auto slow = RunWith(expensive, /*use_cache=*/false);
  // Everything is a miss without a cache: per-value cost dominates.
  EXPECT_GT(slow.mean_response_ms, fast.mean_response_ms * 3);
}

TEST_F(CostKnobTest, CacheMaintenanceCostVisible) {
  CostModel free_cache;
  free_cache.cache_lookup_us = 0.0;
  free_cache.cache_insert_us = 0.0;
  CostModel costly_cache = free_cache;
  costly_cache.cache_lookup_us = 5.0;
  costly_cache.cache_insert_us = 10.0;
  const auto fast = RunWith(free_cache);
  const auto slow = RunWith(costly_cache);
  EXPECT_GT(slow.mean_response_ms, fast.mean_response_ms);
}

TEST_F(CostKnobTest, ComputeCostAffectsEveryVisit) {
  CostModel light;
  light.compute_per_node_us = 0.01;
  CostModel heavy = light;
  heavy.compute_per_node_us = 5.0;
  const auto fast = RunWith(light);
  const auto slow = RunWith(heavy);
  EXPECT_GT(slow.mean_response_ms, fast.mean_response_ms * 2);
}

TEST_F(CostKnobTest, RouterDecisionCostChargedPerQuery) {
  CostModel cheap;
  cheap.route_base_us = 0.0;
  cheap.route_per_proc_us = 0.0;
  CostModel pricey = cheap;
  pricey.route_base_us = 200.0;  // absurd, to make it visible
  const auto fast = RunWith(cheap);
  const auto slow = RunWith(pricey);
  EXPECT_GT(slow.mean_response_ms, fast.mean_response_ms);
}

TEST_F(CostKnobTest, VirtualTimeIndependentOfWallTime) {
  // Two identical runs must produce bit-identical virtual-time metrics.
  const auto a = RunWith(CostModel::InfinibandDefaults());
  const auto b = RunWith(CostModel::InfinibandDefaults());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace grouting
