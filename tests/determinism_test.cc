// Seed-determinism regression: the simulated engine is the repo's reference
// implementation, so two runs of the SAME ClusterConfig + seed must produce
// bit-identical ClusterMetrics — every counter and every double, no
// tolerance — for every routing scheme and a spread of seeds, with the full
// adaptive stack (repartitioning + hot-partition replication + async
// fetch + tracing) enabled. Anything nondeterministic snuck into the sim
// (wall-clock reads, RNG without a seeded stream, map iteration order,
// address-keyed containers) shows up here as a single flipped bit.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/core/grouting.h"

namespace grouting {
namespace {

constexpr RoutingSchemeKind kAllSchemes[] = {
    RoutingSchemeKind::kNoCache, RoutingSchemeKind::kNextReady,
    RoutingSchemeKind::kHash, RoutingSchemeKind::kLandmark,
    RoutingSchemeKind::kEmbed};

constexpr uint64_t kSeeds[] = {1, 7, 23, 31, 4242};

// Runs every seed x scheme twice on the simulated engine with the full
// adaptive stack (repartitioning + hot-partition replication + async fetch)
// plus whatever `configure` adds and, with `num_mutations` > 0, a timed
// edge-mutation schedule, and expects the two runs to agree on every
// ClusterMetrics field, per_tenant included. Doubles compare exactly on
// purpose: determinism means the same float ops in the same order.
void ExpectDeterministic(const std::function<void(RunOptions*)>& configure,
                         size_t num_mutations = 0) {
  for (const uint64_t seed : kSeeds) {
    ExperimentEnv env(DatasetId::kWebGraphLike, /*scale=*/0.06, seed);
    const auto queries = env.SkewedWorkload(/*sessions=*/16, /*queries=*/150,
                                            /*zipf_s=*/1.3);
    std::vector<GraphMutation> schedule;
    if (num_mutations > 0) {
      MutationScheduleConfig mc;
      mc.num_mutations = num_mutations;
      mc.seed = env.seed() ^ 0x66;
      schedule = GenerateMutationSchedule(env.graph(), {}, mc);
    }
    for (const RoutingSchemeKind scheme : kAllSchemes) {
      RunOptions opts;
      opts.scheme = scheme;
      opts.processors = 3;
      opts.storage_servers = 4;
      opts.num_landmarks = 12;
      opts.min_separation = 2;
      opts.dimensions = 4;
      opts.cache_bytes = 32 << 10;
      opts.max_inflight_batches = 2;
      opts.repartition.migration.threshold = 1.1;
      opts.repartition.migration.migration_cap = 4;
      opts.repartition.partitions_per_server = 4;
      opts.repartition.replication_top_k = 2;
      opts.gossip_period_us = 50.0;
      opts.arrival_gap_us = 2.0;
      configure(&opts);
      const auto run = [&] {
        auto engine = MakeClusterEngine(EngineKind::kSimulated, env.graph(),
                                        env.MakeClusterConfig(opts),
                                        env.MakeStrategy(opts));
        if (!schedule.empty()) {
          engine->set_mutation_schedule(schedule);
        }
        return engine->Run(queries);
      };

      const ClusterMetrics first = run();
      const ClusterMetrics second = run();
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", scheme "
                   << RoutingSchemeKindName(scheme));
      EXPECT_EQ(first.queries, queries.size());
      EXPECT_EQ(first.mutations_applied, schedule.size());
      EXPECT_EQ(first, second);
    }
  }
}

TEST(DeterminismTest, SimMetricsAreBitIdenticalAcrossRuns) {
  ExpectDeterministic([](RunOptions* opts) { opts->trace_sample_every_n = 3; });
}

TEST(DeterminismTest, SimMetricsAreBitIdenticalUnderOnlineMutations) {
  // Same invariant with the online write path live: timed mutation events
  // interleave with queries, migrations, and replica churn in virtual time,
  // and index maintenance runs on the gossip cadence.
  ExpectDeterministic(
      [](RunOptions* opts) {
        opts->enable_mutations = true;
        opts->index_refresh_period_us = 100.0;
      },
      /*num_mutations=*/96);
}

}  // namespace
}  // namespace grouting
