// Tests for the discrete-event simulator: event ordering, and the decoupled
// cluster simulation's functional correctness (query answers match the
// reference executor) and temporal sanity (conservation, monotonicity).

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/graph/generators.h"
#include "src/sim/decoupled_sim.h"
#include "src/sim/event_queue.h"
#include "src/workload/workload.h"

namespace grouting {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5.0, [&] { order.push_back(5); });
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.ScheduleAt(3.0, [&] { order.push_back(3); });
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueueTest, TiesBrokenByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  q.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] {
    ++fired;
    q.ScheduleAfter(1.0, [&] { ++fired; });
  });
  q.RunUntilEmpty();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  double observed = -1.0;
  q.ScheduleAt(4.0, [&] { q.ScheduleAfter(2.5, [&] { observed = q.now(); }); });
  q.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(observed, 6.5);
}

// ------------------------------------------------------- DecoupledSim ---

class DecoupledSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LocalityWebConfig cfg;
    cfg.grid_width = 6;
    cfg.grid_height = 6;
    cfg.community_size = 30;
    graph_ = GenerateLocalityWeb(cfg, 3);
    WorkloadConfig wc;
    wc.num_hotspots = 20;
    wc.queries_per_hotspot = 5;
    wc.seed = 17;
    queries_ = GenerateHotspotWorkload(graph_, wc);
  }

  ClusterConfig BaseConfig() const {
    ClusterConfig sc;
    sc.num_processors = 3;
    sc.num_storage_servers = 2;
    sc.processor.cache_bytes = graph_.TotalAdjacencyBytes() + (1 << 20);
    return sc;
  }

  Graph graph_;
  std::vector<Query> queries_;
};

TEST_F(DecoupledSimTest, AllQueriesAnswered) {
  DecoupledClusterSim sim(graph_, BaseConfig(), std::make_unique<NextReadyStrategy>());
  auto metrics = sim.Run(queries_);
  EXPECT_EQ(metrics.queries, queries_.size());
  EXPECT_EQ(sim.answers().size(), queries_.size());
  EXPECT_GT(metrics.makespan_us, 0.0);
  EXPECT_GT(metrics.throughput_qps, 0.0);
  EXPECT_GT(metrics.mean_response_ms, 0.0);
}

TEST_F(DecoupledSimTest, AnswersMatchReferenceExecutor) {
  DecoupledClusterSim sim(graph_, BaseConfig(), std::make_unique<HashStrategy>());
  sim.Run(queries_);
  // The sim preserves arrival order in results only per processor; compare
  // aggregate answers by re-running each query against the plain graph.
  // (Order across processors interleaves, so match by query id via count.)
  DirectGraphSource reference(graph_);
  uint64_t expected_aggregate = 0;
  uint64_t expected_reachable = 0;
  for (const Query& q : queries_) {
    const auto r = ExecuteQuery(q, reference);
    expected_aggregate += r.aggregate;
    expected_reachable += r.reachable;
  }
  uint64_t got_aggregate = 0;
  uint64_t got_reachable = 0;
  for (const auto& a : sim.answers()) {
    got_aggregate += a.result.aggregate;
    got_reachable += a.result.reachable;
  }
  EXPECT_EQ(got_aggregate, expected_aggregate);
  EXPECT_EQ(got_reachable, expected_reachable);
}

TEST_F(DecoupledSimTest, WorkConservedAcrossProcessors) {
  DecoupledClusterSim sim(graph_, BaseConfig(), std::make_unique<NextReadyStrategy>());
  auto metrics = sim.Run(queries_);
  uint64_t total = 0;
  for (uint64_t c : metrics.queries_per_processor) {
    total += c;
  }
  EXPECT_EQ(total, queries_.size());
}

TEST_F(DecoupledSimTest, NoCacheModeNeverHits) {
  ClusterConfig sc = BaseConfig();
  sc.processor.use_cache = false;
  DecoupledClusterSim sim(graph_, sc, std::make_unique<NextReadyStrategy>());
  auto metrics = sim.Run(queries_);
  EXPECT_EQ(metrics.cache_hits, 0u);
  EXPECT_GT(metrics.cache_misses, 0u);
}

TEST_F(DecoupledSimTest, CacheModeHitsOnHotspotWorkload) {
  DecoupledClusterSim sim(graph_, BaseConfig(), std::make_unique<HashStrategy>());
  auto metrics = sim.Run(queries_);
  EXPECT_GT(metrics.cache_hits, 0u);
  EXPECT_GT(metrics.CacheHitRate(), 0.05);
}

TEST_F(DecoupledSimTest, DeterministicAcrossRuns) {
  DecoupledClusterSim a(graph_, BaseConfig(), std::make_unique<HashStrategy>());
  DecoupledClusterSim b(graph_, BaseConfig(), std::make_unique<HashStrategy>());
  auto ma = a.Run(queries_);
  auto mb = b.Run(queries_);
  EXPECT_EQ(ma, mb);
}

TEST_F(DecoupledSimTest, MoreProcessorsDoNotReduceThroughput) {
  ClusterConfig sc1 = BaseConfig();
  sc1.num_processors = 1;
  DecoupledClusterSim sim1(graph_, sc1, std::make_unique<NextReadyStrategy>());
  const double thr1 = sim1.Run(queries_).throughput_qps;

  ClusterConfig sc4 = BaseConfig();
  sc4.num_processors = 4;
  DecoupledClusterSim sim4(graph_, sc4, std::make_unique<NextReadyStrategy>());
  const double thr4 = sim4.Run(queries_).throughput_qps;
  EXPECT_GT(thr4, thr1);
}

TEST_F(DecoupledSimTest, MoreStorageServersHelpNoCacheWorkload) {
  ClusterConfig sc1 = BaseConfig();
  sc1.processor.use_cache = false;
  sc1.num_storage_servers = 1;
  DecoupledClusterSim sim1(graph_, sc1, std::make_unique<NextReadyStrategy>());
  const double thr1 = sim1.Run(queries_).throughput_qps;

  ClusterConfig sc4 = BaseConfig();
  sc4.processor.use_cache = false;
  sc4.num_storage_servers = 4;
  DecoupledClusterSim sim4(graph_, sc4, std::make_unique<NextReadyStrategy>());
  const double thr4 = sim4.Run(queries_).throughput_qps;
  EXPECT_GT(thr4, thr1);
}

TEST_F(DecoupledSimTest, EthernetSlowerThanInfiniband) {
  ClusterConfig ib = BaseConfig();
  ib.cost = CostModel::InfinibandDefaults();
  DecoupledClusterSim sim_ib(graph_, ib, std::make_unique<HashStrategy>());
  const double r_ib = sim_ib.Run(queries_).mean_response_ms;

  ClusterConfig eth = BaseConfig();
  eth.cost = CostModel::EthernetDefaults();
  DecoupledClusterSim sim_eth(graph_, eth, std::make_unique<HashStrategy>());
  const double r_eth = sim_eth.Run(queries_).mean_response_ms;
  EXPECT_GT(r_eth, r_ib);
}

TEST_F(DecoupledSimTest, RunTwiceIsRejected) {
  DecoupledClusterSim sim(graph_, BaseConfig(), std::make_unique<NextReadyStrategy>());
  sim.Run(queries_);
  EXPECT_DEATH(sim.Run(queries_), "Run may only be called once");
}

TEST_F(DecoupledSimTest, TinyCacheStillCorrect) {
  ClusterConfig sc = BaseConfig();
  sc.processor.cache_bytes = 4096;  // heavy eviction churn
  DecoupledClusterSim sim(graph_, sc, std::make_unique<HashStrategy>());
  auto metrics = sim.Run(queries_);
  EXPECT_EQ(metrics.queries, queries_.size());
  // Eviction-heavy runs must still produce exact answers.
  DirectGraphSource reference(graph_);
  uint64_t expected = 0;
  for (const Query& q : queries_) {
    expected += ExecuteQuery(q, reference).aggregate;
  }
  uint64_t got = 0;
  for (const auto& a : sim.answers()) {
    got += a.result.aggregate;
  }
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace grouting
